package core

import (
	"fmt"

	"repro/internal/aad"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// AsyncConfig configures the asynchronous approximate BVC node.
type AsyncConfig struct {
	Params
	// WitnessOpt enables the Appendix-F optimization: Zi is built from the
	// first n−f tuples reported by each witness (|Zi| ≤ n, γ = 1/n²)
	// instead of from every (n−f)-subset of Bi[t] (γ = 1/(n·C(n,n−f))).
	WitnessOpt bool
	// MaxRounds overrides the analytic round bound when positive (used by
	// experiments that sweep rounds); the default is the paper's
	// 1 + ⌈log_{1/(1−γ)} (U−ν)/ε⌉.
	MaxRounds int
}

// StepStatus reports what a Start or Step call did to the node.
type StepStatus uint8

// Step outcomes.
const (
	StepContinue   StepStatus = iota // processed; nothing to report
	StepDecided                      // this call reached the decision (reported once)
	StepFailed                       // failed, now or earlier; Decision returns the error
	StepOutOfRange                   // dropped: round outside [1, Rounds()], which no correct process sends
)

// AsyncNode runs the asynchronous approximate BVC algorithm of §3.2 as an
// event-driven node:
//
//	per round t: obtain Bi[t] via the AAD witness exchange, gather one
//	deterministic safe point per candidate set into Zi, and move to
//	vi[t] = avg(Zi); after the termination round count, decide vi.
//
// Correct for n ≥ (d+2)f+1 — Theorem 5.
//
// Like the two layers under it the node is a pure state machine: Start and
// Step leave what the node wants broadcast in its outbox and report
// decision or failure by return value. Init/OnMessage adapt that to sim.Node
// (the simulators); the live service calls Step directly.
type AsyncNode struct {
	cfg   AsyncConfig
	self  sim.ProcID
	coord *aad.Coordinator

	v       geometry.Vector
	round   int // current round, 1-based; 0 before Start
	rounds  int // termination round count
	history []geometry.Vector
	ziSizes []int

	decision geometry.Vector
	err      error

	outbox []aad.Msg // what the last Start/Step wants broadcast

	// finishRound's scratch, reused every round.
	tuples   []tuple
	byOrigin []tuple
	sets     [][]tuple
	members  []tuple // backing store of the sets
}

var _ sim.Node = (*AsyncNode)(nil)

// NewAsyncNode builds the node for process self with the given input.
func NewAsyncNode(cfg AsyncConfig, self sim.ProcID, input geometry.Vector) (*AsyncNode, error) {
	cfg.Params = cfg.Params.WithDefaults()
	if err := cfg.Validate(VariantApproxAsync); err != nil {
		return nil, err
	}
	if err := cfg.CheckInput(input, true); err != nil {
		return nil, err
	}
	if int(self) < 0 || int(self) >= cfg.N {
		return nil, fmt.Errorf("core: self=%d out of range n=%d", self, cfg.N)
	}
	coord, err := aad.NewCoordinator(cfg.N, cfg.F, self, cfg.D)
	if err != nil {
		return nil, err
	}
	rounds := cfg.MaxRounds
	if rounds <= 0 {
		gamma := Gamma(VariantApproxAsync, cfg.N, cfg.F, cfg.WitnessOpt)
		rounds = RoundBound(gamma, cfg.Bounds.MaxRange(), cfg.Epsilon)
	}
	// No correct process starts a round past the termination count, so the
	// exchange keeps no state beyond it.
	coord.SetHorizon(rounds)
	return &AsyncNode{
		cfg:      cfg,
		self:     self,
		coord:    coord,
		v:        input.Clone(),
		rounds:   rounds,
		history:  []geometry.Vector{input.Clone()},
		byOrigin: make([]tuple, cfg.N),
	}, nil
}

// Rounds returns the termination round count R used by this node.
func (a *AsyncNode) Rounds() int { return a.rounds }

// Start begins round 1. Like Step it fills the outbox.
func (a *AsyncNode) Start() StepStatus {
	a.outbox = a.outbox[:0]
	a.round = 1
	a.startRound()
	return a.status()
}

// Step processes one message of the exchange from process from. A decided
// node keeps serving the exchange (echoes, readies, reports) so lagging
// correct processes can finish; it only stops advancing its own rounds,
// and keeps no witness tables. m is read, not retained.
func (a *AsyncNode) Step(from sim.ProcID, m *aad.Msg) StepStatus {
	a.outbox = a.outbox[:0]
	if a.err != nil {
		return StepFailed
	}
	dropped := a.coord.Dropped()
	out, results := a.coord.Handle(from, *m)
	if a.coord.Dropped() != dropped {
		return StepOutOfRange
	}
	// out is the coordinator's scratch; the next round's start reuses it,
	// and cleared it pins no broadcast slab once the node lingers.
	a.outbox = append(a.outbox, out...)
	clear(out)
	if a.decision != nil {
		return StepContinue // linger: serve the protocol, but no further rounds
	}
	for i := range results {
		res := &results[i]
		if res.Round != a.round {
			// The coordinator only completes started rounds, and rounds
			// are started sequentially, so this cannot happen.
			a.fail(fmt.Errorf("core: completed round %d while in round %d", res.Round, a.round))
			break
		}
		if a.finishRound(res) {
			a.startRound()
		}
		if a.decision != nil || a.err != nil {
			break
		}
	}
	return a.status()
}

// status is the outcome of a call that began undecided and healthy.
func (a *AsyncNode) status() StepStatus {
	switch {
	case a.err != nil:
		return StepFailed
	case a.decision != nil:
		return StepDecided
	default:
		return StepContinue
	}
}

// Outbox returns, in order, the messages the last Start or Step wants
// broadcast to every process (this one included). The slice is the node's
// scratch, valid until its next Start or Step; the values inside follow the
// broadcast.RBC ownership rule (retain, never write).
func (a *AsyncNode) Outbox() []aad.Msg { return a.outbox }

// Init implements sim.Node: start round 1.
func (a *AsyncNode) Init(api sim.API) { a.emit(api, a.Start()) }

// OnMessage implements sim.Node over Step.
func (a *AsyncNode) OnMessage(api sim.API, from sim.ProcID, msg sim.Message) {
	m, ok := msg.(aad.Msg)
	if !ok {
		return // foreign message types are ignored
	}
	a.emit(api, a.Step(from, &m))
}

// emit hands the outbox to a sim.API and halts a node that failed. A
// decided node keeps running: a delivered tuple is guaranteed only f+1
// correct READY senders, so a lagging process needs every correct
// process's amplification — including the decided ones' — to reach the
// 2f+1 delivery threshold.
func (a *AsyncNode) emit(api sim.API, st StepStatus) {
	for _, o := range a.outbox {
		api.Broadcast(o)
	}
	if st == StepFailed {
		api.Halt()
	}
}

// startRound begins the exchange for the current round, and for every
// further round whose exchange is complete the moment it starts (possible
// when this process lagged and the round's traffic already arrived).
func (a *AsyncNode) startRound() {
	for {
		msgs, err := a.coord.StartRound(a.round, a.v)
		if err != nil {
			a.fail(err)
			return
		}
		a.outbox = append(a.outbox, msgs...)
		res, ok := a.coord.Completed(a.round)
		if !ok || !a.finishRound(res) {
			return
		}
	}
}

// finishRound applies Step 2 (eq. (9)) to the completed exchange and either
// moves to the next round — reporting true: the caller starts it — or
// decides. The tuples reference the exchange's own copies of the values;
// nothing here writes to them.
func (a *AsyncNode) finishRound(res *aad.Result) (advanced bool) {
	tuples := a.tuples[:0]
	clear(a.byOrigin) // nil value: origin not in B
	for _, tp := range res.Tuples {
		t := tuple{origin: int(tp.Origin), value: tp.Value}
		tuples = append(tuples, t)
		a.byOrigin[tp.Origin] = t
	}
	a.tuples = tuples

	var (
		next   geometry.Vector
		ziSize int
		err    error
	)
	if a.cfg.WitnessOpt {
		// Appendix F: one candidate set per witness — the witness's first
		// n−f reported tuples. |Zi| ≤ n. A set keeps pointing into the
		// members array it was cut from if a later append moves it on.
		sets, members := a.sets[:0], a.members[:0]
		for _, prefix := range res.WitnessPrefixes {
			at := len(members)
			for _, origin := range prefix {
				tp := a.byOrigin[origin]
				if tp.value == nil {
					a.fail(fmt.Errorf("core: witness prefix references origin %d missing from B", origin))
					return false
				}
				members = append(members, tp)
			}
			sets = append(sets, members[at:len(members):len(members)])
		}
		a.sets, a.members = sets, members
		next, ziSize, err = a.cfg.engine().AverageGammaSets(sets, a.cfg.F, a.cfg.Method)
	} else {
		// §3.2 Step 2: every C ⊆ Bi[t] with |C| = n−f, streamed by the
		// engine rather than materialized.
		next, ziSize, err = a.cfg.engine().AverageGamma(tuples, a.cfg.N-a.cfg.F, a.cfg.F, a.cfg.Method)
	}
	if err != nil {
		a.fail(err)
		return false
	}
	a.v = next
	a.history = append(a.history, next.Clone())
	a.ziSizes = append(a.ziSizes, ziSize)

	if a.round >= a.rounds {
		a.decision = a.v.Clone()
		a.shed()
		return false
	}
	a.round++
	return true
}

// shed drops what only advancing rounds needs: finishRound's scratch and,
// through the coordinator, every round's witness tables.
func (a *AsyncNode) shed() {
	a.tuples, a.byOrigin, a.sets, a.members = nil, nil, nil, nil
	a.coord.Linger()
}

// Linger hands back the exchange coordinator of a decided node, or nil
// before the decision. From its decision on, a node's Step only steps the
// coordinator: the messages Handle returns are its outbox, a message the
// coordinator counts in Dropped is StepOutOfRange, and the node is
// Quiescent exactly when the coordinator is. So a caller that keeps only
// what can still send may keep the coordinator and drop the node — its
// history, outbox and round state. The simulators keep stepping the node.
func (a *AsyncNode) Linger() *aad.Coordinator {
	if a.decision == nil {
		return nil
	}
	return a.coord
}

func (a *AsyncNode) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Decision returns the decided vector once the node has terminated.
func (a *AsyncNode) Decision() (geometry.Vector, error) {
	if a.err != nil {
		return nil, a.err
	}
	if a.decision == nil {
		return nil, fmt.Errorf("core: approximate BVC not terminated (round %d of %d)", a.round, a.rounds)
	}
	return a.decision.Clone(), nil
}

// History returns vi[0..t]: the state after every completed round,
// beginning with the input. Experiments use it to measure the per-round
// contraction of the correct processes' range against 1−γ.
func (a *AsyncNode) History() []geometry.Vector {
	out := make([]geometry.Vector, len(a.history))
	for i, v := range a.history {
		out[i] = v.Clone()
	}
	return out
}

// ZiSizes returns |Zi| per completed round — C(|Bi|, n−f) for the full
// algorithm, ≤ n with the witness optimization (the E9 ablation measures
// this).
func (a *AsyncNode) ZiSizes() []int {
	out := make([]int, len(a.ziSizes))
	copy(out, a.ziSizes)
	return out
}
