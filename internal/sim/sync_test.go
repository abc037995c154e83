package sim

import (
	"errors"
	"testing"
)

// countingSync broadcasts its id each round and tallies what it hears;
// done after `rounds` rounds.
type countingSync struct {
	id     ProcID
	n      int
	rounds int
	round  int
	heard  map[ProcID]int
}

func newCountingSync(id, n, rounds int) *countingSync {
	return &countingSync{id: ProcID(id), n: n, rounds: rounds, heard: make(map[ProcID]int)}
}

func (c *countingSync) Outbox(r int) map[ProcID]Message {
	out := make(map[ProcID]Message, c.n)
	for i := 0; i < c.n; i++ {
		out[ProcID(i)] = int(c.id)
	}
	return out
}

func (c *countingSync) Deliver(r int, inbox map[ProcID]Message) {
	for from := range inbox {
		c.heard[from]++
	}
	c.round = r
}

func (c *countingSync) Done() bool { return c.round >= c.rounds }

func TestRunSyncAllToAll(t *testing.T) {
	const n, rounds = 4, 3
	nodes := make([]SyncNode, n)
	impls := make([]*countingSync, n)
	for i := range nodes {
		impls[i] = newCountingSync(i, n, rounds)
		nodes[i] = impls[i]
	}
	stats, err := RunSync(nodes, rounds+1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AllDone {
		t.Error("not all done")
	}
	if stats.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", stats.Rounds, rounds)
	}
	if stats.Sent != int64(n*n*rounds) {
		t.Errorf("sent = %d, want %d", stats.Sent, n*n*rounds)
	}
	for i, impl := range impls {
		for from, cnt := range impl.heard {
			if cnt != rounds {
				t.Errorf("node %d heard %d from %d, want %d", i, cnt, from, rounds)
			}
		}
		if len(impl.heard) != n {
			t.Errorf("node %d heard from %d senders, want %d", i, len(impl.heard), n)
		}
	}
}

func TestRunSyncRoundCap(t *testing.T) {
	nodes := []SyncNode{newCountingSync(0, 1, 1000)}
	_, err := RunSync(nodes, 3)
	if !errors.Is(err, ErrRoundCap) {
		t.Errorf("err = %v, want ErrRoundCap", err)
	}
}

func TestRunSyncValidation(t *testing.T) {
	if _, err := RunSync(nil, 5); err == nil {
		t.Error("no nodes: expected error")
	}
	if _, err := RunSync([]SyncNode{newCountingSync(0, 1, 1)}, 0); err == nil {
		t.Error("bad cap: expected error")
	}
}

// silentSync never sends and is done immediately.
type silentSync struct{}

func (silentSync) Outbox(int) map[ProcID]Message   { return nil }
func (silentSync) Deliver(int, map[ProcID]Message) {}
func (silentSync) Done() bool                      { return true }

func TestRunSyncImmediateDone(t *testing.T) {
	stats, err := RunSync([]SyncNode{silentSync{}, silentSync{}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || !stats.AllDone {
		t.Errorf("stats = %+v, want 0 rounds all-done", stats)
	}
}

// equivocatingSync sends different values to different recipients — the
// fundamental Byzantine capability the sync engine must support.
type equivocatingSync struct {
	done bool
}

func (e *equivocatingSync) Outbox(r int) map[ProcID]Message {
	return map[ProcID]Message{0: "left", 1: "right"}
}

func (e *equivocatingSync) Deliver(int, map[ProcID]Message) { e.done = true }
func (e *equivocatingSync) Done() bool                      { return e.done }

// recorderSync keeps the last value received from each sender.
type recorderSync struct {
	last map[ProcID]Message
	done bool
}

func (r *recorderSync) Outbox(int) map[ProcID]Message { return nil }

func (r *recorderSync) Deliver(_ int, inbox map[ProcID]Message) {
	if r.last == nil {
		r.last = make(map[ProcID]Message)
	}
	for from, m := range inbox {
		r.last[from] = m
	}
	r.done = true
}

func (r *recorderSync) Done() bool { return r.done }

func TestRunSyncEquivocation(t *testing.T) {
	a := &recorderSync{}
	b := &recorderSync{}
	nodes := []SyncNode{a, b, &equivocatingSync{}}
	if _, err := RunSync(nodes, 2); err != nil {
		t.Fatal(err)
	}
	if a.last[2] != "left" || b.last[2] != "right" {
		t.Errorf("equivocation lost: a=%v b=%v", a.last[2], b.last[2])
	}
}

// partialSync sends only to recipient 0 — models a crash mid-broadcast.
type partialSync struct{ done bool }

func (p *partialSync) Outbox(int) map[ProcID]Message {
	return map[ProcID]Message{0: "only-you"}
}
func (p *partialSync) Deliver(int, map[ProcID]Message) { p.done = true }
func (p *partialSync) Done() bool                      { return p.done }

func TestRunSyncPartialSend(t *testing.T) {
	a := &recorderSync{}
	b := &recorderSync{}
	if _, err := RunSync([]SyncNode{a, b, &partialSync{}}, 2); err != nil {
		t.Fatal(err)
	}
	if a.last[2] != "only-you" {
		t.Error("recipient 0 missed the partial send")
	}
	if _, ok := b.last[2]; ok {
		t.Error("recipient 1 should have received nothing from the partial sender")
	}
}

func TestRunSyncDropsInvalidDestinations(t *testing.T) {
	bad := &badDestSync{}
	stats, err := RunSync([]SyncNode{bad}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 0 {
		t.Errorf("sent = %d, want 0", stats.Sent)
	}
}

type badDestSync struct{ done bool }

func (b *badDestSync) Outbox(int) map[ProcID]Message {
	return map[ProcID]Message{5: "x", -1: "y"}
}
func (b *badDestSync) Deliver(int, map[ProcID]Message) { b.done = true }
func (b *badDestSync) Done() bool                      { return b.done }
