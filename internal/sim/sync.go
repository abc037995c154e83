package sim

import (
	"errors"
	"fmt"
)

// SyncStats summarizes a synchronous execution.
type SyncStats struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Sent counts all messages carried across all rounds.
	Sent int64
	// AllDone reports whether every node terminated before the round cap.
	AllDone bool
}

// ErrRoundCap is returned when a synchronous run hits its round cap with
// undone nodes — a liveness failure of the protocol under test.
var ErrRoundCap = errors.New("sim: synchronous round cap exceeded")

// RunSync drives the nodes in lock-step rounds: in round r every node
// emits its outbox, then every node receives its inbox. This is the
// classical synchronous model the paper's Exact BVC and restricted
// synchronous algorithms assume. It stops when all nodes report Done or
// after maxRounds.
func RunSync(nodes []SyncNode, maxRounds int) (SyncStats, error) {
	if len(nodes) == 0 {
		return SyncStats{}, errors.New("sim: no nodes")
	}
	if maxRounds <= 0 {
		return SyncStats{}, fmt.Errorf("sim: invalid round cap %d", maxRounds)
	}
	var stats SyncStats
	outs := make([]map[ProcID]Message, len(nodes))
	inboxes := make([]map[ProcID]Message, len(nodes))
	for r := 1; r <= maxRounds; r++ {
		if allDone(nodes) {
			stats.AllDone = true
			return stats, nil
		}
		stats.Rounds = r

		// Phase 1: collect all outboxes (a node must not observe same-round
		// messages while building its own — that would break synchrony).
		for i, nd := range nodes {
			outs[i] = nil
			if !nd.Done() {
				outs[i] = nd.Outbox(r)
			}
		}

		// Fold the outboxes into inboxes, iterating senders in id order.
		for i := range inboxes {
			inboxes[i] = make(map[ProcID]Message)
		}
		for i, out := range outs {
			for to, msg := range out {
				if int(to) < 0 || int(to) >= len(nodes) {
					continue // dropped, as in the async engine
				}
				inboxes[to][ProcID(i)] = msg
				stats.Sent++
			}
		}

		// Phase 2: deliver every inbox. Done is re-checked per node — an
		// Outbox call may have crashed the node (e.g. a mid-broadcast
		// crash adversary).
		for i, nd := range nodes {
			if !nd.Done() {
				nd.Deliver(r, inboxes[i])
			}
		}
	}
	if allDone(nodes) {
		stats.AllDone = true
		return stats, nil
	}
	return stats, fmt.Errorf("%w (%d rounds)", ErrRoundCap, maxRounds)
}

func allDone(nodes []SyncNode) bool {
	for _, nd := range nodes {
		if !nd.Done() {
			return false
		}
	}
	return true
}
