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
	// HaltWhenDecided stops the node at its decision instead of lingering
	// to serve the reliable-broadcast instances of slower processes.
	// Lingering (the default) is required for liveness when f ≥ 2: a
	// delivered tuple is guaranteed only f+1 correct READY senders, and a
	// lagging process needs the remaining correct processes' amplification
	// to reach the 2f+1 delivery threshold. With f ≤ 1 halting is safe
	// (f+1 correct readys plus the process's own amplification meet the
	// threshold), which live deployments may prefer.
	HaltWhenDecided bool
}

// AsyncNode runs the asynchronous approximate BVC algorithm of §3.2 as an
// event-driven node:
//
//	per round t: obtain Bi[t] via the AAD witness exchange, gather one
//	deterministic safe point per candidate set into Zi, and move to
//	vi[t] = avg(Zi); after the termination round count, decide vi.
//
// Correct for n ≥ (d+2)f+1 — Theorem 5.
type AsyncNode struct {
	cfg   AsyncConfig
	self  sim.ProcID
	coord *aad.Coordinator

	v       geometry.Vector
	round   int // current round, 1-based; 0 before Init
	rounds  int // termination round count
	history []geometry.Vector
	ziSizes []int

	decision geometry.Vector
	err      error
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
	return &AsyncNode{
		cfg:     cfg,
		self:    self,
		coord:   coord,
		v:       input.Clone(),
		rounds:  rounds,
		history: []geometry.Vector{input.Clone()},
	}, nil
}

// Rounds returns the termination round count R used by this node.
func (a *AsyncNode) Rounds() int { return a.rounds }

// Init implements sim.Node: start round 1.
func (a *AsyncNode) Init(api sim.API) {
	a.round = 1
	a.startRound(api)
}

// OnMessage implements sim.Node. A decided node keeps serving the exchange
// (echoes, readies, reports) so lagging correct processes can finish; it
// only stops advancing its own rounds.
func (a *AsyncNode) OnMessage(api sim.API, from sim.ProcID, msg sim.Message) {
	if a.err != nil {
		return
	}
	m, ok := msg.(aad.Msg)
	if !ok {
		return // foreign message types are ignored
	}
	out, results := a.coord.Handle(from, m)
	for _, o := range out {
		api.Broadcast(o)
	}
	if a.decision != nil {
		return // linger: serve the protocol, but no further rounds
	}
	for _, res := range results {
		if res.Round != a.round {
			// The coordinator only completes started rounds, and rounds
			// are started sequentially, so this cannot happen.
			a.fail(api, fmt.Errorf("core: completed round %d while in round %d", res.Round, a.round))
			return
		}
		a.finishRound(api, &res)
		if a.decision != nil || a.err != nil {
			return
		}
	}
}

// startRound begins the exchange for the current round and processes an
// immediately-complete exchange (possible when this process lagged and the
// round's traffic already arrived).
func (a *AsyncNode) startRound(api sim.API) {
	for {
		msgs, err := a.coord.StartRound(a.round, a.v)
		if err != nil {
			a.fail(api, err)
			return
		}
		for _, m := range msgs {
			api.Broadcast(m)
		}
		res, ok := a.coord.Completed(a.round)
		if !ok {
			return
		}
		a.finishRound(api, res)
		if a.decision != nil || a.err != nil {
			return
		}
	}
}

// finishRound applies Step 2 (eq. (9)) to the completed exchange and either
// advances to the next round or decides.
func (a *AsyncNode) finishRound(api sim.API, res *aad.Result) {
	tuples := make([]tuple, len(res.Tuples))
	byOrigin := make([]tuple, a.cfg.N) // nil value: origin not in B
	for i, tp := range res.Tuples {
		tuples[i] = tuple{origin: int(tp.Origin), value: tp.Value}
		byOrigin[tp.Origin] = tuples[i]
	}

	var (
		next   geometry.Vector
		ziSize int
		err    error
	)
	if a.cfg.WitnessOpt {
		// Appendix F: one candidate set per witness — the witness's first
		// n−f reported tuples. |Zi| ≤ n.
		sets := make([][]tuple, 0, len(res.WitnessPrefixes))
		for _, prefix := range res.WitnessPrefixes {
			set := make([]tuple, 0, len(prefix))
			for _, origin := range prefix {
				tp := byOrigin[origin]
				if tp.value == nil {
					a.fail(api, fmt.Errorf("core: witness prefix references origin %d missing from B", origin))
					return
				}
				set = append(set, tp)
			}
			sets = append(sets, set)
		}
		next, ziSize, err = a.cfg.engine().AverageGammaSets(sets, a.cfg.F, a.cfg.Method)
	} else {
		// §3.2 Step 2: every C ⊆ Bi[t] with |C| = n−f, streamed by the
		// engine rather than materialized.
		next, ziSize, err = a.cfg.engine().AverageGamma(tuples, a.cfg.N-a.cfg.F, a.cfg.F, a.cfg.Method)
	}
	if err != nil {
		a.fail(api, err)
		return
	}
	a.v = next
	a.history = append(a.history, next.Clone())
	a.ziSizes = append(a.ziSizes, ziSize)

	if a.round >= a.rounds {
		a.decision = a.v.Clone()
		if a.cfg.HaltWhenDecided {
			api.Halt()
		}
		return
	}
	a.round++
	a.startRound(api)
}

func (a *AsyncNode) fail(api sim.API, err error) {
	if a.err == nil {
		a.err = err
	}
	api.Halt()
}

// Decided reports whether the node has reached its decision. When
// HaltWhenDecided is off the node keeps serving the exchange afterwards;
// Decided is the cheap signal callers poll to detect the transition.
func (a *AsyncNode) Decided() bool { return a.decision != nil }

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
