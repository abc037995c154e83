package core

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/sim"
)

// roundHorizon resolves the executed round count of a restricted node: the
// analytic termination bound, capped by Params.MaxRounds when set. The cap
// never raises the horizon — running longer than the analytic bound is
// wasted work.
func roundHorizon(gamma float64, params Params) int {
	rounds := RoundBound(gamma, params.Bounds.MaxRange(), params.Epsilon)
	if params.MaxRounds > 0 && params.MaxRounds < rounds {
		rounds = params.MaxRounds
	}
	return rounds
}

// RestrictedSyncNode runs the §4 synchronous algorithm with the restricted
// round structure: each round is a single state exchange (send vi[t−1] to
// all, receive from all, missing senders defaulting to the all-0 vector),
// followed by the §3.2-style Step 2 over Bi[t] = the n received vectors.
// Correct for n ≥ (d+2)f+1 — Theorem 6. Termination uses the analytic
// round bound with γ = 1/(n·C(n, n−f)).
type RestrictedSyncNode struct {
	params Params
	self   sim.ProcID

	v       geometry.Vector
	rounds  int
	history []geometry.Vector

	decision geometry.Vector
	err      error
}

var _ sim.SyncNode = (*RestrictedSyncNode)(nil)

// NewRestrictedSyncNode builds the node for process self.
func NewRestrictedSyncNode(params Params, self sim.ProcID, input geometry.Vector) (*RestrictedSyncNode, error) {
	if err := params.Validate(VariantRestrictedSync); err != nil {
		return nil, err
	}
	if err := params.CheckInput(input, true); err != nil {
		return nil, err
	}
	if int(self) < 0 || int(self) >= params.N {
		return nil, fmt.Errorf("core: self=%d out of range n=%d", self, params.N)
	}
	gamma := Gamma(VariantRestrictedSync, params.N, params.F, false)
	return &RestrictedSyncNode{
		params:  params,
		self:    self,
		v:       input.Clone(),
		rounds:  roundHorizon(gamma, params),
		history: []geometry.Vector{input.Clone()},
	}, nil
}

// Rounds returns the termination round count.
func (rs *RestrictedSyncNode) Rounds() int { return rs.rounds }

// Outbox implements sim.SyncNode: broadcast the current state.
func (rs *RestrictedSyncNode) Outbox(r int) map[sim.ProcID]sim.Message {
	out := make(map[sim.ProcID]sim.Message, rs.params.N)
	msg := StateMsg{Round: r, Value: rs.v.Clone()}
	for to := 0; to < rs.params.N; to++ {
		out[sim.ProcID(to)] = msg
	}
	return out
}

// Deliver implements sim.SyncNode.
func (rs *RestrictedSyncNode) Deliver(r int, inbox map[sim.ProcID]sim.Message) {
	if rs.Done() {
		return
	}
	def := geometry.NewVector(rs.params.D)
	tuples := make([]tuple, rs.params.N)
	for j := 0; j < rs.params.N; j++ {
		value := def
		if raw, ok := inbox[sim.ProcID(j)]; ok {
			if m, ok := raw.(StateMsg); ok && m.Round == r &&
				m.Value.Dim() == rs.params.D && m.Value.IsFinite() {
				value = m.Value
			}
		}
		tuples[j] = tuple{origin: j, value: value}
	}
	next, _, err := rs.params.engine().AverageGamma(tuples, rs.params.N-rs.params.F, rs.params.F)
	if err != nil {
		rs.err = err
		return
	}
	rs.v = next
	rs.history = append(rs.history, next.Clone())
	if r >= rs.rounds {
		rs.decision = rs.v.Clone()
	}
}

// Done implements sim.SyncNode.
func (rs *RestrictedSyncNode) Done() bool { return rs.decision != nil || rs.err != nil }

// Decision returns the decided vector once terminated.
func (rs *RestrictedSyncNode) Decision() (geometry.Vector, error) {
	if rs.err != nil {
		return nil, rs.err
	}
	if rs.decision == nil {
		return nil, fmt.Errorf("core: restricted sync BVC not terminated")
	}
	return rs.decision.Clone(), nil
}

// History returns vi after every completed round, starting with the input.
func (rs *RestrictedSyncNode) History() []geometry.Vector {
	out := make([]geometry.Vector, len(rs.history))
	for i, v := range rs.history {
		out[i] = v.Clone()
	}
	return out
}

// RestrictedAsyncNode runs the §4 asynchronous algorithm with the
// restricted (Dolev-style) round structure: broadcast vi[t−1] tagged t,
// wait for round-t states from n−f−1 other processes, then apply Step 2 to
// the n−f collected vectors using candidate subsets of size n−3f (the
// largest size certain to be shared with every other correct process,
// since |Bi∩Bj| ≥ n−3f ≥ (d+1)f+1 when n ≥ (d+4)f+1 — Theorem 6).
type RestrictedAsyncNode struct {
	params Params
	self   sim.ProcID

	v      geometry.Vector
	round  int
	rounds int

	// pending[t] holds round-t states from other processes in arrival
	// order; FIFO links and the sequential-broadcast structure bound this
	// by one entry per process per round.
	pending map[int][]tuple
	seen    map[int]map[sim.ProcID]bool

	history  []geometry.Vector
	decision geometry.Vector
	err      error
}

var _ sim.Node = (*RestrictedAsyncNode)(nil)

// NewRestrictedAsyncNode builds the node for process self.
func NewRestrictedAsyncNode(params Params, self sim.ProcID, input geometry.Vector) (*RestrictedAsyncNode, error) {
	if err := params.Validate(VariantRestrictedAsync); err != nil {
		return nil, err
	}
	if err := params.CheckInput(input, true); err != nil {
		return nil, err
	}
	if int(self) < 0 || int(self) >= params.N {
		return nil, fmt.Errorf("core: self=%d out of range n=%d", self, params.N)
	}
	gamma := Gamma(VariantRestrictedAsync, params.N, params.F, false)
	return &RestrictedAsyncNode{
		params:  params,
		self:    self,
		v:       input.Clone(),
		rounds:  roundHorizon(gamma, params),
		pending: make(map[int][]tuple),
		seen:    make(map[int]map[sim.ProcID]bool),
		history: []geometry.Vector{input.Clone()},
	}, nil
}

// Rounds returns the termination round count.
func (ra *RestrictedAsyncNode) Rounds() int { return ra.rounds }

// Init implements sim.Node.
func (ra *RestrictedAsyncNode) Init(api sim.API) {
	ra.round = 1
	api.Broadcast(StateMsg{Round: 1, Value: ra.v.Clone()})
	// Self-delivery arrives through the engine like any other message but
	// is excluded from the n−f−1 count, so nothing else to do here.
}

// OnMessage implements sim.Node.
func (ra *RestrictedAsyncNode) OnMessage(api sim.API, from sim.ProcID, msg sim.Message) {
	if ra.Doneish() {
		return
	}
	m, ok := msg.(StateMsg)
	if !ok {
		return
	}
	if from == ra.self || m.Round < ra.round || m.Round > ra.rounds {
		return // own copies and stale rounds are irrelevant; bogus rounds dropped
	}
	if m.Value.Dim() != ra.params.D || !m.Value.IsFinite() {
		return
	}
	seen := ra.seen[m.Round]
	if seen == nil {
		seen = make(map[sim.ProcID]bool, ra.params.N)
		ra.seen[m.Round] = seen
	}
	if seen[from] {
		return // one state per process per round (first wins)
	}
	seen[from] = true
	ra.pending[m.Round] = append(ra.pending[m.Round], tuple{origin: int(from), value: m.Value.Clone()})

	for ra.tryAdvance(api) {
	}
}

// tryAdvance completes the current round if enough states arrived.
func (ra *RestrictedAsyncNode) tryAdvance(api sim.API) bool {
	if ra.Doneish() {
		return false
	}
	need := ra.params.N - ra.params.F - 1
	arrived := ra.pending[ra.round]
	if len(arrived) < need {
		return false
	}
	b := make([]tuple, 0, need+1)
	b = append(b, tuple{origin: int(ra.self), value: ra.v})
	b = append(b, arrived[:need]...)

	next, _, err := ra.params.engine().AverageGamma(b, ra.params.N-3*ra.params.F, ra.params.F)
	if err != nil {
		ra.fail(api, err)
		return false
	}
	delete(ra.pending, ra.round)
	delete(ra.seen, ra.round)
	ra.v = next
	ra.history = append(ra.history, next.Clone())

	if ra.round >= ra.rounds {
		ra.decision = ra.v.Clone()
		api.Halt()
		return false
	}
	ra.round++
	api.Broadcast(StateMsg{Round: ra.round, Value: ra.v.Clone()})
	return true // buffered messages may already satisfy the new round
}

func (ra *RestrictedAsyncNode) fail(api sim.API, err error) {
	if ra.err == nil {
		ra.err = err
	}
	api.Halt()
}

// Doneish reports whether the node has decided or failed.
func (ra *RestrictedAsyncNode) Doneish() bool { return ra.decision != nil || ra.err != nil }

// Decision returns the decided vector once terminated.
func (ra *RestrictedAsyncNode) Decision() (geometry.Vector, error) {
	if ra.err != nil {
		return nil, ra.err
	}
	if ra.decision == nil {
		return nil, fmt.Errorf("core: restricted async BVC not terminated (round %d of %d, %d/%d states pending)",
			ra.round, ra.rounds, len(ra.pending[ra.round]), ra.params.N-ra.params.F-1)
	}
	return ra.decision.Clone(), nil
}

// History returns vi after every completed round, starting with the input.
func (ra *RestrictedAsyncNode) History() []geometry.Vector {
	out := make([]geometry.Vector, len(ra.history))
	for i, v := range ra.history {
		out[i] = v.Clone()
	}
	return out
}
