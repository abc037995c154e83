package bvc

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// DelayKind selects the simulated network delay distribution.
type DelayKind int

// Delay distributions.
const (
	// DelayConstant delivers every message after Mean.
	DelayConstant DelayKind = iota + 1
	// DelayUniform draws delays uniformly from [Min, Max].
	DelayUniform
	// DelayExponential draws delays exponentially with the given Mean.
	DelayExponential
	// DelayShiftedExp draws delays as Min (a constant floor) plus an
	// exponential tail with mean Mean: the heavy-tailed stress schedule
	// on links with a fixed minimum latency.
	DelayShiftedExp
)

// DelaySpec describes the delay model of a simulated execution.
type DelaySpec struct {
	Kind     DelayKind
	Mean     time.Duration // constant / exponential
	Min, Max time.Duration // uniform
	// StarveSet lists processes whose outgoing messages are additionally
	// delayed by StarveExtra — the adversarial scheduler of the paper's
	// lower-bound arguments (legal in an asynchronous system).
	StarveSet   []int
	StarveExtra time.Duration
}

func (d DelaySpec) model() sim.DelayModel {
	var inner sim.DelayModel
	switch d.Kind {
	case DelayUniform:
		inner = sim.UniformDelay{Min: d.Min, Max: d.Max}
	case DelayExponential:
		mean := d.Mean
		if mean <= 0 {
			mean = time.Millisecond
		}
		inner = sim.ExponentialDelay{Mean: mean}
	case DelayShiftedExp:
		mean := d.Mean
		if mean <= 0 {
			mean = time.Millisecond
		}
		floor := d.Min
		if floor <= 0 {
			floor = mean / 3
		}
		inner = sim.ShiftedExponentialDelay{Floor: floor, TailMean: mean}
	case DelayConstant:
		mean := d.Mean
		if mean <= 0 {
			mean = time.Millisecond
		}
		inner = sim.ConstantDelay{D: mean}
	default:
		inner = sim.ConstantDelay{D: time.Millisecond}
	}
	if len(d.StarveSet) == 0 {
		return inner
	}
	slow := make(map[sim.ProcID]bool, len(d.StarveSet))
	for _, id := range d.StarveSet {
		slow[sim.ProcID(id)] = true
	}
	extra := d.StarveExtra
	if extra <= 0 {
		extra = time.Second
	}
	return sim.StarveSenders{Inner: inner, Slow: slow, Extra: extra}
}

// SimOptions parameterizes a simulated execution.
type SimOptions struct {
	// Seed drives all randomness (schedules and adversary choices);
	// identical seeds replay identical executions.
	Seed int64
	// Delay is the network delay model (asynchronous variants only).
	Delay DelaySpec
	// Engine is the Γ-point engine the run computes on; nil selects the
	// shared default engine (parallel across GOMAXPROCS and memoized). Every
	// engine produces bit-identical decisions, so this chooses only where
	// the work runs, which memo it shares and whose counters record it.
	// The simulated processes step one at a time; the engine is the only
	// part of a run that fans out across cores.
	Engine *GammaEngine
}

// ResetEngineCaches drops every memoized Γ-point from the shared default
// engine; its counters keep counting. Benchmarks call it between iterations to measure
// cold-cache runs; production code never needs it (the caches are bounded
// and exact).
func ResetEngineCaches() {
	core.DefaultEngine().Reset()
}

// Strategy names a Byzantine behaviour from the built-in library.
type Strategy int

// Byzantine strategies.
const (
	// StrategySilent never sends a message.
	StrategySilent Strategy = iota + 1
	// StrategyCrash crashes the process; what it sends first depends on
	// the variant:
	//   - ExactSync (and the coordinate-wise baseline) runs a correct node
	//     on Target (zero unless Target is d-dimensional) and crashes
	//     mid-broadcast in round CrashAfter (default 1): that round
	//     reaches only processes 0 … n/2−1, later rounds nobody;
	//   - RestrictedSync announces Target (or zero) to everyone in every
	//     round through CrashAfter, then goes silent (CrashAfter 0: silent
	//     from the start);
	//   - ApproxAsync runs a correct node on the process's own input
	//     (Target, or zero, when that input is nil) and stops after
	//     CrashAfter deliveries (default 10);
	//   - RestrictedAsync is silent from the start.
	StrategyCrash
	// StrategyEquivocate tells different processes different values
	// (Target to the first half, Target2 to the rest), every round.
	StrategyEquivocate
	// StrategyRandom sends protocol-shaped random garbage.
	StrategyRandom
	// StrategyLure participates protocol-compliantly but always announces
	// Target, trying to drag the correct processes' states toward it.
	StrategyLure
)

// Byzantine assigns a strategy to a process id.
type Byzantine struct {
	ID       int
	Strategy Strategy
	// Target / Target2 parameterize equivocation and lure strategies: a
	// lure needs a d-dimensional Target, an equivocation both. A crash
	// takes an optional d-dimensional Target (nil: the zero vector).
	Target  Vector
	Target2 Vector
	// CrashAfter parameterizes StrategyCrash (see Strategy docs).
	CrashAfter int
}

// SimulateExact runs Exact BVC (§2.2) in the lock-step synchronous
// simulator. inputs[i] is ignored for Byzantine slots (pass nil).
func SimulateExact(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	return simulateEIG(cfg, inputs, byz, opts, core.NewExactNode)
}

// SimulateCoordinateWise runs the scalar-consensus-per-dimension baseline;
// it satisfies agreement and per-dimension scalar validity but can violate
// vector validity (the paper's motivating counterexample; experiment E8).
func SimulateCoordinateWise(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	return simulateEIG(cfg, inputs, byz, opts, core.NewCoordWiseNode)
}

// simulateEIG runs an EIG-based synchronous protocol (Exact BVC or the
// coordinate-wise baseline), whose nodes newNode builds.
func simulateEIG[T interface {
	sim.SyncNode
	decider
}](cfg Config, inputs []Vector, byz []Byzantine,
	opts SimOptions, newNode func(core.Params, sim.ProcID, geometry.Vector) (T, error)) (*Result, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	params.Engine = opts.Engine.engine()
	correct := func(i int, input geometry.Vector) (sim.SyncNode, process, error) {
		nd, err := newNode(params, sim.ProcID(i), input)
		return nd, eigProcess{nd, params.F + 1}, err
	}
	return simulate(cfg, inputs, byz, simulation[sim.SyncNode]{
		variant: ExactSync,
		correct: correct,
		adversary: func(b Byzantine, horizon int) (sim.SyncNode, error) {
			return syncEIGAdversary(cfg, params.Bounds, b, horizon, opts.Seed, correct)
		},
		run: runRounds,
	})
}

// SimulateRestrictedSync runs the §4 restricted-round synchronous
// algorithm.
func SimulateRestrictedSync(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	params.Engine = opts.Engine.engine()
	return simulate(cfg, inputs, byz, simulation[sim.SyncNode]{
		variant: RestrictedSync,
		correct: func(i int, input geometry.Vector) (sim.SyncNode, process, error) {
			nd, err := core.NewRestrictedSyncNode(params, sim.ProcID(i), input)
			return nd, nd, err
		},
		adversary: func(b Byzantine, horizon int) (sim.SyncNode, error) {
			return restrictedSyncAdversary(cfg, params.Bounds, b, horizon, opts.Seed)
		},
		run: runRounds,
	})
}

// SimulateApproxAsync runs the §3.2 asynchronous approximate algorithm on
// the deterministic discrete-event simulator.
func SimulateApproxAsync(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	acfg, err := cfg.asyncConfig()
	if err != nil {
		return nil, err
	}
	acfg.Engine = opts.Engine.engine()
	return simulate(cfg, inputs, byz, simulation[sim.Node]{
		variant: ApproxAsync,
		correct: func(i int, input geometry.Vector) (sim.Node, process, error) {
			nd, err := core.NewAsyncNode(acfg, sim.ProcID(i), input)
			return nd, nd, err
		},
		adversary: func(b Byzantine, horizon int) (sim.Node, error) {
			return asyncAdversary(cfg, acfg, b, horizon, inputs)
		},
		run: runEvents(cfg, opts),
	})
}

// SimulateRestrictedAsync runs the §4 restricted-round asynchronous
// algorithm on the simulator.
func SimulateRestrictedAsync(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	params.Engine = opts.Engine.engine()
	return simulate(cfg, inputs, byz, simulation[sim.Node]{
		variant: RestrictedAsync,
		correct: func(i int, input geometry.Vector) (sim.Node, process, error) {
			nd, err := core.NewRestrictedAsyncNode(params, sim.ProcID(i), input)
			return nd, nd, err
		},
		adversary: func(b Byzantine, horizon int) (sim.Node, error) {
			return restrictedAsyncAdversary(cfg, params.Bounds, b, horizon)
		},
		run: runEvents(cfg, opts),
	})
}

// simulation is what one simulated execution brings to simulate: how it
// builds a correct process and an adversary, and how it runs the nodes. N
// is the simulator's node interface, sim.SyncNode or sim.Node.
type simulation[N any] struct {
	variant Variant
	// correct builds correct process i on its input.
	correct func(i int, input geometry.Vector) (N, process, error)
	// adversary builds b's node, attacking through round horizon.
	adversary func(b Byzantine, horizon int) (N, error)
	// run executes the nodes up to the correct processes' horizon.
	run func(nodes []N, horizon int) (ran, error)
}

// process is a correct simulated process, read back once the run ends.
type process interface {
	Decision() (geometry.Vector, error)
	Rounds() int
	History() []geometry.Vector
}

// eigProcess reads back an EIG node, which runs f+1 rounds and keeps no
// per-round history.
type eigProcess struct {
	decider
	rounds int
}

type decider interface {
	Decision() (geometry.Vector, error)
}

// Rounds is the f+1 rounds the EIG node ran.
func (p eigProcess) Rounds() int { return p.rounds }

// History is nil: an EIG node keeps no per-round history.
func (p eigProcess) History() []geometry.Vector { return nil }

// ran is a runner's report. A Byzantine process is credited with
// byzRounds: the horizon in lock step, 0 on the event engine.
type ran struct {
	messages  int64
	virtual   time.Duration
	byzRounds int
}

// simulate is the one place a simulated execution is wired: it checks the
// inputs and the Byzantine specs, builds the correct nodes, builds the
// adversaries at the correct nodes' round horizon, runs the nodes and
// reads back every correct process's decision, round count and history.
func simulate[N any](cfg Config, inputs []Vector, byz []Byzantine, s simulation[N]) (*Result, error) {
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("bvc: %d inputs for n=%d", len(inputs), cfg.N)
	}
	byzMap, err := byzIndex(cfg, byz)
	if err != nil {
		return nil, err
	}
	nodes := make([]N, cfg.N)
	procs := make([]process, cfg.N)
	horizon := 0
	for i := range nodes {
		if _, ok := byzMap[i]; ok {
			continue
		}
		nd, p, err := s.correct(i, toGeometry(inputs[i]))
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		nodes[i], procs[i] = nd, p
		horizon = max(horizon, p.Rounds())
	}
	for _, b := range byz {
		if nodes[b.ID], err = s.adversary(b, horizon); err != nil {
			return nil, err
		}
	}
	st, err := s.run(nodes, horizon)
	if err != nil {
		return nil, err
	}
	res := &Result{Variant: s.variant, Config: cfg, Messages: st.messages, VirtualTime: st.virtual}
	for i, p := range procs {
		pr := ProcessResult{ID: i, Byzantine: p == nil, Rounds: st.byzRounds}
		if p != nil {
			pr.Input = append(Vector(nil), inputs[i]...)
			dec, err := p.Decision()
			if err != nil {
				return nil, fmt.Errorf("bvc: process %d failed to decide: %w", i, err)
			}
			pr.Decision = fromGeometry(dec)
			pr.Rounds = p.Rounds()
			for _, h := range p.History() {
				pr.History = append(pr.History, fromGeometry(h))
			}
		}
		res.Processes = append(res.Processes, pr)
	}
	return res, nil
}

// runRounds runs the lock-step round engine one round past the horizon. A
// run that hits the cap still yields a result, for verification to judge.
func runRounds(nodes []sim.SyncNode, horizon int) (ran, error) {
	st, err := sim.RunSync(nodes, horizon+1)
	if err != nil && !errors.Is(err, sim.ErrRoundCap) {
		return ran{}, err
	}
	return ran{messages: st.Sent, byzRounds: horizon}, nil
}

// runEvents returns the runner for the discrete-event engine under opts'
// seed and delay model; it runs until no event is left.
func runEvents(cfg Config, opts SimOptions) func([]sim.Node, int) (ran, error) {
	return func(nodes []sim.Node, _ int) (ran, error) {
		eng, err := sim.NewEngine(sim.Config{N: cfg.N, Seed: opts.Seed, Delay: opts.Delay.model()}, nodes)
		if err != nil {
			return ran{}, err
		}
		st, err := eng.Run()
		return ran{messages: st.Sent, virtual: st.FinalTime}, err
	}
}

// byzIndex checks the Byzantine specs — ids in range and distinct, at most
// f of them, and the targets a lure or an equivocation needs — and indexes
// them by id.
func byzIndex(cfg Config, byz []Byzantine) (map[int]Byzantine, error) {
	out := make(map[int]Byzantine, len(byz))
	for _, b := range byz {
		if b.ID < 0 || b.ID >= cfg.N {
			return nil, fmt.Errorf("bvc: byzantine id %d out of range n=%d", b.ID, cfg.N)
		}
		if _, dup := out[b.ID]; dup {
			return nil, fmt.Errorf("bvc: duplicate byzantine id %d", b.ID)
		}
		switch {
		case b.Strategy == StrategyLure && len(b.Target) != cfg.D:
			return nil, fmt.Errorf("bvc: lure target dimension %d, want %d", len(b.Target), cfg.D)
		case b.Strategy == StrategyEquivocate && (len(b.Target) != cfg.D || len(b.Target2) != cfg.D):
			return nil, fmt.Errorf("bvc: equivocation targets must both have dimension %d", cfg.D)
		case b.Strategy == StrategyCrash && b.Target != nil && len(b.Target) != cfg.D:
			return nil, fmt.Errorf("bvc: crash target dimension %d, want %d (or nil for the zero vector)", len(b.Target), cfg.D)
		}
		out[b.ID] = b
	}
	if len(out) > cfg.F {
		return nil, fmt.Errorf("bvc: %d byzantine processes exceed f=%d", len(out), cfg.F)
	}
	return out, nil
}

// syncEIGAdversary maps a Byzantine spec to an EIG-protocol adversary;
// correct builds the protocol's honest node.
func syncEIGAdversary(cfg Config, bounds geometry.Box, b Byzantine, rounds int, seed int64,
	correct func(int, geometry.Vector) (sim.SyncNode, process, error)) (sim.SyncNode, error) {
	switch b.Strategy {
	case StrategySilent:
		return adversary.SilentSync{}, nil
	case StrategyCrash:
		wrapped, _, err := correct(b.ID, toGeometry(orZero(b.Target, cfg.D)))
		if err != nil {
			return nil, err
		}
		crashRound := b.CrashAfter
		if crashRound <= 0 {
			crashRound = 1
		}
		return &adversary.CrashSync{Wrapped: wrapped, CrashRound: crashRound, PartialTo: cfg.N / 2}, nil
	case StrategyEquivocate:
		ta, tb := toGeometry(b.Target), toGeometry(b.Target2)
		return adversary.NewEIGEquivocator(cfg.N, rounds, sim.ProcID(b.ID), func(to sim.ProcID) geometry.Vector {
			if int(to) < cfg.N/2 {
				return ta.Clone()
			}
			return tb.Clone()
		}), nil
	case StrategyRandom:
		box := randomBox(bounds, cfg.D)
		return adversary.NewEIGRandom(cfg.N, cfg.D, rounds, box, seededRand(seed, b.ID)), nil
	case StrategyLure:
		// A lure in the exact protocol is an honest participant with an
		// extreme input — the strongest protocol-compliant value attack.
		nd, _, err := correct(b.ID, toGeometry(b.Target))
		return nd, err
	default:
		return nil, fmt.Errorf("bvc: unknown strategy %d", b.Strategy)
	}
}

func restrictedSyncAdversary(cfg Config, bounds geometry.Box, b Byzantine, rounds int, seed int64) (sim.SyncNode, error) {
	switch b.Strategy {
	case StrategySilent:
		return adversary.SilentSync{}, nil
	case StrategyCrash:
		// In the restricted structure a crash is silence from the crash
		// round on; model it as a lure until CrashAfter, silence after.
		after := b.CrashAfter
		target := toGeometry(orZero(b.Target, cfg.D))
		return &adversary.FuncSync{Rounds: rounds, Fn: func(r int) map[sim.ProcID]sim.Message {
			if r > after {
				return nil
			}
			out := make(map[sim.ProcID]sim.Message, cfg.N)
			for to := 0; to < cfg.N; to++ {
				out[sim.ProcID(to)] = core.StateMsg{Round: r, Value: target.Clone()}
			}
			return out
		}}, nil
	case StrategyEquivocate:
		return adversary.NewStateEquivocator(cfg.N, rounds, cfg.N/2, toGeometry(b.Target), toGeometry(b.Target2)), nil
	case StrategyRandom:
		box := randomBox(bounds, cfg.D)
		return adversary.NewStateRandom(cfg.N, rounds, box, seededRand(seed, b.ID)), nil
	case StrategyLure:
		return adversary.NewStateLure(cfg.N, rounds, toGeometry(b.Target)), nil
	default:
		return nil, fmt.Errorf("bvc: unknown strategy %d", b.Strategy)
	}
}

func asyncAdversary(cfg Config, acfg core.AsyncConfig, b Byzantine, rounds int, inputs []Vector) (sim.Node, error) {
	switch b.Strategy {
	case StrategySilent:
		return adversary.SilentAsync{}, nil
	case StrategyCrash:
		input := orZero(b.Target, cfg.D)
		if inputs[b.ID] != nil {
			input = inputs[b.ID]
		}
		wrapped, err := core.NewAsyncNode(acfg, sim.ProcID(b.ID), toGeometry(input))
		if err != nil {
			return nil, err
		}
		after := b.CrashAfter
		if after <= 0 {
			after = 10
		}
		return &adversary.CrashAsync{Wrapped: wrapped, AfterDeliveries: after}, nil
	case StrategyEquivocate:
		return adversary.NewAsyncEquivocator(cfg.N, rounds, sim.ProcID(b.ID), cfg.N/2, toGeometry(b.Target), toGeometry(b.Target2)), nil
	case StrategyRandom:
		box := randomBox(acfg.Bounds, cfg.D)
		return adversary.NewAsyncRandom(cfg.N, rounds, 4, box), nil
	case StrategyLure:
		return adversary.NewAsyncLure(cfg.N, cfg.F, cfg.D, rounds, sim.ProcID(b.ID), toGeometry(b.Target))
	default:
		return nil, fmt.Errorf("bvc: unknown strategy %d", b.Strategy)
	}
}

func restrictedAsyncAdversary(cfg Config, bounds geometry.Box, b Byzantine, rounds int) (sim.Node, error) {
	switch b.Strategy {
	case StrategySilent, StrategyCrash:
		return adversary.SilentAsync{}, nil
	case StrategyEquivocate, StrategyLure:
		ta := toGeometry(b.Target)
		tb := ta
		if b.Strategy == StrategyEquivocate {
			tb = toGeometry(b.Target2)
		}
		n := cfg.N
		return &adversary.FuncAsync{OnInit: func(api sim.API) {
			for t := 1; t <= rounds; t++ {
				for to := 0; to < n; to++ {
					v := ta
					if to >= n/2 {
						v = tb
					}
					api.Send(sim.ProcID(to), core.StateMsg{Round: t, Value: v.Clone()})
				}
			}
		}}, nil
	case StrategyRandom:
		box := randomBox(bounds, cfg.D)
		n := cfg.N
		return &adversary.FuncAsync{OnInit: func(api sim.API) {
			rng := api.Rand()
			for t := 1; t <= rounds; t++ {
				for to := 0; to < n; to++ {
					api.Send(sim.ProcID(to), core.StateMsg{Round: t, Value: adversary.RandomVector(rng, box)})
				}
			}
		}}, nil
	default:
		return nil, fmt.Errorf("bvc: unknown strategy %d", b.Strategy)
	}
}

// randomBox is the sample space for random adversaries: the configured
// input bounds inflated 3×, or a default box when no bounds are set.
func randomBox(bounds geometry.Box, d int) geometry.Box {
	if bounds.MaxRange() == 0 {
		return geometry.UniformBox(d, -1, 1)
	}
	lo := bounds.Lo.Clone()
	hi := bounds.Hi.Clone()
	for i := range lo {
		r := hi[i] - lo[i]
		lo[i] -= r
		hi[i] += r
	}
	return geometry.Box{Lo: lo, Hi: hi}
}

// orZero maps a nil crash target to the d-dimensional zero vector;
// byzIndex has checked any other's dimension.
func orZero(v Vector, d int) Vector {
	if v != nil {
		return v
	}
	return make(Vector, d)
}

// seededRand derives an independent PRNG stream for adversary id from the
// run's master seed. Every simulated process and adversary owns its own
// stream, so one node's draws never shift another's, and distinct master
// seeds yield distinct adversary behaviour (the stream mixes both inputs).
func seededRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource((seed+1)*0x9e3779b9 ^ int64(id+1)*7919))
}
