package service

import "sync/atomic"

// counters is the service's internal atomic counter block. Everything is
// monotone except active (a gauge); Stats snapshots it for callers and
// cmd/bvcload stamps the snapshot into its BENCH records.
type counters struct {
	active    atomic.Int64
	lingering atomic.Int64
	quiesced  atomic.Int64
	proposed  atomic.Int64
	decided   atomic.Int64
	timedOut  atomic.Int64
	failed    atomic.Int64

	framesIn  atomic.Int64
	framesOut atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	writes    atomic.Int64
	reads     atomic.Int64

	writeDrops     atomic.Int64
	writeRetries   atomic.Int64
	pendingFrames  atomic.Int64
	pendingDropped atomic.Int64
	reconnects     atomic.Int64
	readErrors     atomic.Int64
	outOfRange     atomic.Int64

	dialFailures atomic.Int64
	outboxStalls atomic.Int64
	authFailures atomic.Int64

	epoch             atomic.Uint64
	reconfigures      atomic.Int64
	staleEpochRejects atomic.Int64
}

// Stats is a point-in-time snapshot of one service process's counters.
type Stats struct {
	// ActiveInstances is the number of instances Propose accepted that have
	// not yet decided, failed or timed out (gauge). Lingering counts decided instances still serving the
	// exchange for lagging peers (gauge; see Config.LingerTimeout).
	// Quiesced counts decided instances tombstoned the moment they became
	// quiescent — every reliable broadcast of their rounds finished, so
	// they could never send again — rather than at the end of their linger
	// window.
	ActiveInstances int64
	Lingering       int64
	Quiesced        int64
	// Proposed/Decided/TimedOut/Failed count instance outcomes: proposals
	// accepted, decisions delivered, per-instance timeouts, and protocol
	// failures.
	Proposed, Decided, TimedOut, Failed int64
	// FramesIn/FramesOut/BytesIn/BytesOut count v2 frames and payload
	// bytes crossing this process's pooled connections (self-sends are
	// delivered in memory and not counted).
	FramesIn, FramesOut, BytesIn, BytesOut int64
	// Writes counts the conn.Write calls link writers issue, one per
	// outbox swap and one per retry, so FramesOut/Writes is about the
	// mean write batch; Reads counts the Read calls link readers issue on
	// their conns, so BytesIn/Reads is the mean read. Handshake traffic is
	// not counted.
	Writes, Reads int64
	// WriteDrops counts frames lost because the outbox overflowed while
	// the peer was disconnected (blocking on a down peer would stall the
	// instance loop, so the overflow drops — the protocols tolerate it as
	// a crashed peer would be tolerated). WriteRetries counts frames
	// retained after a failed write and resent on the next connection
	// generation; the retried frames the peer already consumed are
	// deduped like any duplicate. Frames a successful write handed the
	// kernel are not retained, so a reset connection can still lose
	// them: delivery is not at-least-once (see peerLink.writeLoop).
	WriteDrops, WriteRetries int64
	// PendingFrames is the current number of frames parked for instances
	// not yet proposed locally (gauge); PendingDropped counts frames from
	// a peer over its QueueDepth budget of them, or that expired parked.
	PendingFrames, PendingDropped int64
	// Reconnects counts successful re-establishments of failed peer
	// connections; ReadErrors counts reader-loop failures beyond clean
	// peer shutdowns — including malformed or corrupted inbound frames,
	// which are peer-attributable faults and do not poison Err().
	Reconnects, ReadErrors int64
	// OutOfRangeRounds counts well-formed consensus messages dropped for
	// naming a round outside [1, R], R the instance's termination round
	// count: no correct process sends one, and state for them would hand
	// any one peer an unbounded allocation. Peer-attributable like
	// ReadErrors, but the connection stays up.
	OutOfRangeRounds int64
	// DialFailures counts failed outbound connection attempts (dial or
	// handshake, or a conn that ended before it delivered a frame);
	// OutboxStalls counts sends that found a peer's outbox full.
	DialFailures, OutboxStalls int64
	// AuthFailures counts inbound connections rejected by the keyed
	// handshake (wrong or missing key).
	AuthFailures int64
	// QueueDepth is the current total number of frames sitting in peer
	// outboxes (gauge) — the live measure of backpressure.
	QueueDepth int
	// Epoch is the current membership epoch (gauge); Reconfigures counts
	// the Reconfigure calls that advanced it.
	Epoch        uint64
	Reconfigures int64
	// StaleEpochRejects counts inbound handshakes refused because they
	// named an epoch other than this process's current one — the guard
	// that keeps a replaced process, or a replacement started with an
	// out-of-date membership, off the mesh.
	StaleEpochRejects int64
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		ActiveInstances:  s.ctr.active.Load(),
		Lingering:        s.ctr.lingering.Load(),
		Quiesced:         s.ctr.quiesced.Load(),
		Proposed:         s.ctr.proposed.Load(),
		Decided:          s.ctr.decided.Load(),
		TimedOut:         s.ctr.timedOut.Load(),
		Failed:           s.ctr.failed.Load(),
		FramesIn:         s.ctr.framesIn.Load(),
		FramesOut:        s.ctr.framesOut.Load(),
		BytesIn:          s.ctr.bytesIn.Load(),
		BytesOut:         s.ctr.bytesOut.Load(),
		Writes:           s.ctr.writes.Load(),
		Reads:            s.ctr.reads.Load(),
		WriteDrops:       s.ctr.writeDrops.Load(),
		WriteRetries:     s.ctr.writeRetries.Load(),
		PendingFrames:    s.ctr.pendingFrames.Load(),
		PendingDropped:   s.ctr.pendingDropped.Load(),
		Reconnects:       s.ctr.reconnects.Load(),
		ReadErrors:       s.ctr.readErrors.Load(),
		OutOfRangeRounds: s.ctr.outOfRange.Load(),
		DialFailures:     s.ctr.dialFailures.Load(),
		OutboxStalls:     s.ctr.outboxStalls.Load(),
		AuthFailures:     s.ctr.authFailures.Load(),

		Epoch:             s.ctr.epoch.Load(),
		Reconfigures:      s.ctr.reconfigures.Load(),
		StaleEpochRejects: s.ctr.staleEpochRejects.Load(),
	}
	for _, p := range s.peers {
		if p != nil {
			st.QueueDepth += p.out.depth()
		}
	}
	return st
}
