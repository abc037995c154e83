// Package aad implements Component #1 of the Abraham–Amit–Dolev (AAD)
// asynchronous agreement protocol: the witness mechanism that gives every
// correct process pi, in every asynchronous round t, a set Bi[t] of
// (process, value, round) tuples satisfying the three properties the BVC
// convergence proof relies on (paper §3.2):
//
//	Property 1: |Bi[t] ∩ Bj[t]| ≥ n−f for correct pi, pj.
//	Property 2: Bi[t] holds at most one tuple per process.
//	Property 3: tuples of correct processes carry their true round-t state.
//
// Construction (paper Appendix F): values are disseminated with Bracha
// reliable broadcast (supplying Properties 2 and 3). Each time a process
// adds a delivered tuple to its B set it reports the addition to everyone
// over the FIFO links. Process pk becomes a *witness* for pi once pk has
// reported ≥ n−f additions and every reported tuple is also in Bi[t]. pi
// finishes the round's exchange when it has n−f witnesses: any two correct
// processes then share a correct witness pk, and pk's first n−f reported
// tuples lie in both B sets — Property 1.
//
// The witness report order also yields the Appendix-F optimization: the
// first n−f origins reported by each witness form the candidate sets C used
// to build Zi with |Zi| ≤ n instead of C(n, n−f) subsets.
package aad

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// MsgKind discriminates the two message families of the exchange.
type MsgKind int

// Message kinds.
const (
	// KindRBC wraps a reliable-broadcast protocol message.
	KindRBC MsgKind = iota + 1
	// KindReport announces "I added Origin's round-Round tuple to my B".
	KindReport
)

// Msg is the wire message of the witness exchange.
type Msg struct {
	Kind   MsgKind
	RBC    broadcast.RBCMsg // valid when Kind == KindRBC
	Report ReportMsg        // valid when Kind == KindReport
}

// ReportMsg announces a tuple addition; the value itself is pinned by RBC
// agreement, so reporting the origin id suffices.
type ReportMsg struct {
	Round  int
	Origin sim.ProcID
}

// Tuple is one member of Bi[t]: process Origin's round-t state.
type Tuple struct {
	Origin sim.ProcID
	Value  geometry.Vector
}

// Result is the outcome of a completed round exchange. Its slices alias the
// coordinator's frozen round state (the broadcast's own copies of the
// values, rows of the report table): retain freely, never write.
type Result struct {
	Round int
	// Tuples is Bi[t] in delivery order (≥ n−f tuples, one per origin).
	Tuples []Tuple
	// WitnessPrefixes holds, for each witness at completion time, the
	// first n−f origins that witness reported, in report order — the
	// Appendix-F candidate sets. There are ≥ n−f of them.
	WitnessPrefixes [][]sim.ProcID
}

// Coordinator runs the witness exchange for every asynchronous round of one
// process. It is a pure state machine: Start/Handle return the messages to
// broadcast; the caller transmits them (simulator engine or live runtime).
// The returned message slices are the coordinator's scratch, valid until
// its next StartRound or Handle call; a caller done with one clears it, so
// the last emission does not keep the broadcast slab its values alias
// alive past the slab's release. A returned result is its round's frozen
// state. The values inside both follow the broadcast.RBC ownership
// rule (retain, never write).
type Coordinator struct {
	n       int
	quorum  int // n − f
	self    sim.ProcID
	rbc     *broadcast.RBC
	horizon int // messages for a round outside [1, horizon] are dropped
	dropped int
	rounds  []*roundState // by round; nil until the round's first message
	// lingering is set by Linger: the caller has finished its own rounds,
	// rounds is dropped, and only the reliable broadcasts are still served.
	lingering bool

	out [2]Msg // one call emits at most an RBC message and a report
}

// roundState tracks one round's exchange with flat, origin-indexed state and
// an incrementally maintained witness count, so the per-message completion
// check is O(1) instead of an O(n²) rescan of every reporter's sequence.
// Its tables are made once, when the round is first named, and never grow.
type roundState struct {
	started   bool
	completed bool

	tuples    []Tuple // Bi[t] so far, in delivery order; capacity n
	delivered []bool  // by origin

	seen   []bool       // n×n: seen[r·n+o] — reporter r reported origin o
	seq    []sim.ProcID // n×n: row r holds reporter r's origins in FIFO order
	seqLen []int        // by reporter: entries of its seq row in use
	// missing[r] counts reporter r's reported origins not yet delivered
	// here. Reporter r is a witness iff seqLen[r] ≥ quorum and
	// missing[r] == 0; witnesses counts reporters currently satisfying it.
	missing   []int
	witnesses int

	result [1]Result // frozen at completion; Handle returns it as is
}

// isWitness reports the (non-monotone) witness predicate for reporter r.
func (st *roundState) isWitness(r int, quorum int) bool {
	return st.seqLen[r] >= quorum && st.missing[r] == 0
}

// NewCoordinator builds the exchange coordinator for process self among n
// processes (f Byzantine) exchanging dim-dimensional vectors, with horizon
// broadcast.DefaultHorizon. It requires n ≥ 3f+1 (implied by the BVC bound
// n ≥ (d+2)f+1 for d ≥ 1).
func NewCoordinator(n, f int, self sim.ProcID, dim int) (*Coordinator, error) {
	if f < 0 || n < 3*f+1 {
		return nil, fmt.Errorf("aad: witness mechanism requires n ≥ 3f+1, got n=%d f=%d", n, f)
	}
	rbc, err := broadcast.NewRBC(n, f, self, dim)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		n: n, quorum: n - f,
		self:    self,
		rbc:     rbc,
		horizon: broadcast.DefaultHorizon,
	}, nil
}

// SetHorizon makes r — the driving protocol's termination round count —
// the last round the coordinator keeps state for. State is created for any
// round a peer names, so without the bound one Byzantine link could
// allocate an n×n table per message; correct processes never start a round
// past r, so nothing live is lost.
func (c *Coordinator) SetHorizon(r int) {
	c.horizon = r
	c.rbc.SetHorizon(r)
}

// Dropped counts the messages discarded for a round outside [1, horizon].
func (c *Coordinator) Dropped() int { return c.dropped }

// Linger tells the coordinator its caller will start and complete no more
// rounds. It drops every round's witness tables and results; from then on
// the reliable broadcasts are still served and a late delivery still emits
// its report — lagging processes need both — but reports are ignored after
// the range check, and StartRound fails.
func (c *Coordinator) Linger() {
	c.lingering = true
	c.rounds = nil
}

// Quiescent reports whether the coordinator is lingering and every round
// up to its horizon has retired — all its reliable broadcasts finished
// (broadcast.RBC.RetiredTags): no message can make it send anything again,
// so it can be dropped without changing what it says.
func (c *Coordinator) Quiescent() bool {
	return c.lingering && c.rbc.RetiredTags() == c.horizon
}

// inRange reports whether round t may have state, counting the drop if not.
func (c *Coordinator) inRange(t int) bool {
	if t < 1 || t > c.horizon {
		c.dropped++
		return false
	}
	return true
}

// StartRound begins round t with this process's current state value,
// returning the messages to broadcast to every process. Round-t traffic
// received before StartRound is already accounted for, so the round may be
// complete immediately; callers should consult Completed(t) after starting.
func (c *Coordinator) StartRound(t int, value geometry.Vector) ([]Msg, error) {
	if t < 1 || t > c.horizon {
		return nil, fmt.Errorf("aad: round %d outside [1, %d]", t, c.horizon)
	}
	if c.lingering {
		return nil, fmt.Errorf("aad: round %d started while lingering", t)
	}
	st := c.round(t)
	if st.started {
		return nil, fmt.Errorf("aad: round %d already started", t)
	}
	st.started = true
	initMsg, err := c.rbc.Broadcast(t, value)
	if err != nil {
		return nil, err
	}
	c.checkCompletion(st, t)
	c.out[0] = Msg{Kind: KindRBC, RBC: initMsg}
	return c.out[:1], nil
}

// Handle processes one incoming message. It returns messages to broadcast
// and the results of any rounds that completed as a consequence. Messages
// for past or future rounds up to the horizon are processed
// unconditionally: reliable broadcast must keep making progress for lagging
// processes even after this process moved on (totality), and early
// round-(t+1) traffic from fast processes must not be lost.
func (c *Coordinator) Handle(from sim.ProcID, m Msg) ([]Msg, []Result) {
	var res []Result
	nout := 0
	switch m.Kind {
	case KindRBC:
		if !c.inRange(m.RBC.Tag) {
			return nil, nil
		}
		outRBC, deliveries := c.rbc.Handle(from, m.RBC)
		for _, o := range outRBC {
			c.out[nout] = Msg{Kind: KindRBC, RBC: o}
			nout++
		}
		for _, d := range deliveries {
			var st *roundState
			if !c.lingering {
				st = c.round(d.Tag)
				if st.delivered[d.Origin] {
					continue // RBC integrity makes this impossible; belt and braces
				}
			}
			// Report the addition to everyone (FIFO links preserve order).
			c.out[nout] = Msg{Kind: KindReport, Report: ReportMsg{Round: d.Tag, Origin: d.Origin}}
			nout++
			if st != nil {
				res = c.deliver(st, d)
			}
		}
		clear(outRBC) // copied into out; see the RBC ownership rule
		clear(deliveries)
	case KindReport:
		res = c.handleReport(from, m.Report)
	}
	if res == nil {
		if nout == 0 {
			return nil, nil // duplicates, messages that move nothing: most traffic
		}
		return c.out[:nout], nil
	}
	return c.out[:nout], res
}

// deliver adds a reliably broadcast tuple to its round's B set.
func (c *Coordinator) deliver(st *roundState, d broadcast.RBCDelivery) []Result {
	st.delivered[d.Origin] = true
	st.tuples = append(st.tuples, Tuple{Origin: d.Origin, Value: d.Value})
	// The delivery may clear the last missing origin of any reporter that
	// already reported it.
	for r := 0; r < c.n; r++ {
		if !st.seen[r*c.n+int(d.Origin)] {
			continue
		}
		wasWitness := st.isWitness(r, c.quorum)
		st.missing[r]--
		if !wasWitness && st.isWitness(r, c.quorum) {
			st.witnesses++
		}
	}
	return c.checkCompletion(st, d.Tag)
}

func (c *Coordinator) handleReport(from sim.ProcID, rep ReportMsg) []Result {
	if int(rep.Origin) < 0 || int(rep.Origin) >= c.n || int(from) < 0 || int(from) >= c.n {
		return nil
	}
	if !c.inRange(rep.Round) || c.lingering {
		return nil
	}
	st := c.round(rep.Round)
	r := int(from)
	if st.seen[r*c.n+int(rep.Origin)] {
		return nil // duplicate report (only Byzantine processes repeat)
	}
	wasWitness := st.isWitness(r, c.quorum)
	st.seen[r*c.n+int(rep.Origin)] = true
	// A row holds each origin at most once (seen drops repeats), so it
	// never outgrows its n entries.
	st.seq[r*c.n+st.seqLen[r]] = rep.Origin
	st.seqLen[r]++
	if !st.delivered[rep.Origin] {
		st.missing[r]++
	}
	if now := st.isWitness(r, c.quorum); now != wasWitness {
		if now {
			st.witnesses++
		} else {
			st.witnesses-- // a report of an undelivered origin suspends the witness
		}
	}
	return c.checkCompletion(st, rep.Round)
}

// checkCompletion consults the incrementally maintained witness count; on
// reaching n−f witnesses it freezes the round result. The witness prefixes,
// in reporter-id order, and the tuples are views of the round's tables:
// both are append-only, so what the views cover is never rewritten.
func (c *Coordinator) checkCompletion(st *roundState, round int) []Result {
	if st.completed || !st.started || st.witnesses < c.quorum {
		return nil
	}
	prefixes := make([][]sim.ProcID, 0, st.witnesses)
	for r := 0; r < c.n; r++ {
		if st.isWitness(r, c.quorum) {
			prefixes = append(prefixes, st.seq[r*c.n:r*c.n+c.quorum:r*c.n+c.quorum])
		}
	}
	st.completed = true
	k := len(st.tuples)
	st.result[0] = Result{Round: round, Tuples: st.tuples[:k:k], WitnessPrefixes: prefixes}
	return st.result[:]
}

// Completed reports whether round t's exchange has finished, and its result.
func (c *Coordinator) Completed(t int) (*Result, bool) {
	if t < 0 || t >= len(c.rounds) || c.rounds[t] == nil || !c.rounds[t].completed {
		return nil, false
	}
	return &c.rounds[t].result[0], true
}

// round returns round t's state, creating it on first use. The caller has
// checked t against the horizon.
func (c *Coordinator) round(t int) *roundState {
	for len(c.rounds) <= t {
		c.rounds = append(c.rounds, nil)
	}
	st := c.rounds[t]
	if st == nil {
		n := c.n
		bools := make([]bool, n*n+n)
		ids := make([]sim.ProcID, n*n)
		counts := make([]int, 2*n)
		st = &roundState{
			tuples:    make([]Tuple, 0, n),
			delivered: bools[n*n:],
			seen:      bools[:n*n],
			seq:       ids,
			seqLen:    counts[:n],
			missing:   counts[n:],
		}
		c.rounds[t] = st
	}
	return st
}
