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
	"errors"
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/sim"
	"repro/internal/wire"
)

func init() {
	wire.Register(Msg{}) // encoding registry (sanctioned init use)
}

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

// Result is the outcome of a completed round exchange.
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
type Coordinator struct {
	n, f   int
	quorum int // n − f
	self   sim.ProcID
	rbc    *broadcast.RBC
	rounds map[int]*roundState
}

// roundState tracks one round's exchange with flat, origin-indexed state and
// an incrementally maintained witness count, so the per-message completion
// check is O(1) instead of an O(n²) rescan of every reporter's sequence.
type roundState struct {
	started   bool
	completed bool

	deliveredVal []geometry.Vector // by origin; nil = not yet delivered
	order        []sim.ProcID      // delivery order of origins

	reportSeen [][]bool       // reporter → origin → reported
	reportSeq  [][]sim.ProcID // reporter → origins in FIFO order
	// missing[r] counts reporter r's reported origins not yet delivered
	// here. Reporter r is a witness iff len(reportSeq[r]) ≥ quorum and
	// missing[r] == 0 — exactly the predicate the completion scan used to
	// recompute. witnesses counts reporters currently satisfying it.
	missing   []int
	witnesses int

	result *Result
}

// isWitness reports the (non-monotone) witness predicate for reporter r.
func (st *roundState) isWitness(r int, quorum int) bool {
	return len(st.reportSeq[r]) >= quorum && st.missing[r] == 0
}

// NewCoordinator builds the exchange coordinator for process self among n
// processes (f Byzantine) exchanging dim-dimensional vectors. It requires
// n ≥ 3f+1 (implied by the BVC bound n ≥ (d+2)f+1 for d ≥ 1).
func NewCoordinator(n, f int, self sim.ProcID, dim int) (*Coordinator, error) {
	if f < 0 || n < 3*f+1 {
		return nil, fmt.Errorf("aad: witness mechanism requires n ≥ 3f+1, got n=%d f=%d", n, f)
	}
	rbc, err := broadcast.NewRBC(n, f, self, dim)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		n: n, f: f, quorum: n - f,
		self:   self,
		rbc:    rbc,
		rounds: make(map[int]*roundState),
	}, nil
}

// StartRound begins round t with this process's current state value,
// returning the messages to broadcast to every process. Round-t traffic
// received before StartRound is already accounted for, so the round may be
// complete immediately; callers should consult Completed(t) after starting.
func (c *Coordinator) StartRound(t int, value geometry.Vector) ([]Msg, error) {
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
	return []Msg{{Kind: KindRBC, RBC: initMsg}}, nil
}

// Handle processes one incoming message. It returns messages to broadcast
// and the results of any rounds that completed as a consequence. Messages
// for past or future rounds are processed unconditionally: reliable
// broadcast must keep making progress for lagging processes even after this
// process moved on (totality), and early round-(t+1) traffic from fast
// processes must not be lost.
func (c *Coordinator) Handle(from sim.ProcID, m Msg) ([]Msg, []Result) {
	switch m.Kind {
	case KindRBC:
		return c.handleRBC(from, m.RBC)
	case KindReport:
		if res := c.handleReport(from, m.Report); res != nil {
			return nil, []Result{*res}
		}
		return nil, nil
	default:
		return nil, nil
	}
}

func (c *Coordinator) handleRBC(from sim.ProcID, rm broadcast.RBCMsg) ([]Msg, []Result) {
	outRBC, deliveries := c.rbc.Handle(from, rm)
	out := make([]Msg, 0, len(outRBC)+len(deliveries))
	for _, o := range outRBC {
		out = append(out, Msg{Kind: KindRBC, RBC: o})
	}
	var results []Result
	for _, d := range deliveries {
		st := c.round(d.Tag)
		if st.deliveredVal[d.Origin] != nil {
			continue // RBC integrity makes this impossible; belt and braces
		}
		st.deliveredVal[d.Origin] = d.Value
		st.order = append(st.order, d.Origin)
		// The delivery may clear the last missing origin of any reporter
		// that already reported it.
		for r := 0; r < c.n; r++ {
			if !st.reportSeen[r][d.Origin] {
				continue
			}
			wasWitness := st.isWitness(r, c.quorum)
			st.missing[r]--
			if !wasWitness && st.isWitness(r, c.quorum) {
				st.witnesses++
			}
		}
		// Report the addition to everyone (FIFO links preserve order).
		out = append(out, Msg{Kind: KindReport, Report: ReportMsg{Round: d.Tag, Origin: d.Origin}})
		if res := c.checkCompletion(st, d.Tag); res != nil {
			results = append(results, *res)
		}
	}
	return out, results
}

func (c *Coordinator) handleReport(from sim.ProcID, rep ReportMsg) *Result {
	if int(rep.Origin) < 0 || int(rep.Origin) >= c.n || int(from) < 0 || int(from) >= c.n {
		return nil
	}
	st := c.round(rep.Round)
	r := int(from)
	if st.reportSeen[r][rep.Origin] {
		return nil // duplicate report (only Byzantine processes repeat)
	}
	wasWitness := st.isWitness(r, c.quorum)
	st.reportSeen[r][rep.Origin] = true
	st.reportSeq[r] = append(st.reportSeq[r], rep.Origin)
	if st.deliveredVal[rep.Origin] == nil {
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
// reaching n−f witnesses it freezes the round result, materializing the
// witness prefixes in reporter-id order exactly as the previous full rescan
// did.
func (c *Coordinator) checkCompletion(st *roundState, round int) *Result {
	if st.completed || !st.started || st.witnesses < c.quorum {
		return nil
	}
	prefixes := make([][]sim.ProcID, 0, st.witnesses)
	for reporter := 0; reporter < c.n; reporter++ {
		if !st.isWitness(reporter, c.quorum) {
			continue
		}
		prefix := make([]sim.ProcID, c.quorum)
		copy(prefix, st.reportSeq[reporter][:c.quorum])
		prefixes = append(prefixes, prefix)
	}
	st.completed = true
	tuples := make([]Tuple, len(st.order))
	for i, origin := range st.order {
		tuples[i] = Tuple{Origin: origin, Value: st.deliveredVal[origin].Clone()}
	}
	st.result = &Result{Round: round, Tuples: tuples, WitnessPrefixes: prefixes}
	return st.result
}

// Completed reports whether round t's exchange has finished, and its result.
func (c *Coordinator) Completed(t int) (*Result, bool) {
	st, ok := c.rounds[t]
	if !ok || !st.completed {
		return nil, false
	}
	return st.result, true
}

func (c *Coordinator) round(t int) *roundState {
	st := c.rounds[t]
	if st == nil {
		// Both reporter-indexed tables are rows of one flat n×n slab. A
		// reporter's sequence holds each origin at most once (reportSeen
		// drops repeats), so a row of capacity n never grows.
		seen := make([][]bool, c.n)
		seq := make([][]sim.ProcID, c.n)
		flatSeen := make([]bool, c.n*c.n)
		flatSeq := make([]sim.ProcID, c.n*c.n)
		for i := range seen {
			seen[i] = flatSeen[i*c.n : (i+1)*c.n]
			seq[i] = flatSeq[i*c.n : i*c.n : (i+1)*c.n]
		}
		st = &roundState{
			deliveredVal: make([]geometry.Vector, c.n),
			reportSeen:   seen,
			reportSeq:    seq,
			missing:      make([]int, c.n),
		}
		c.rounds[t] = st
	}
	return st
}

// ErrNotCompleted is returned when a result is requested for an unfinished
// round.
var ErrNotCompleted = errors.New("aad: round exchange not completed")

// Result returns the frozen result of round t.
func (c *Coordinator) Result(t int) (*Result, error) {
	res, ok := c.Completed(t)
	if !ok {
		return nil, ErrNotCompleted
	}
	return res, nil
}
