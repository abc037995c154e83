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
	// StrategyCrash behaves correctly, then stops (synchronous: crashes
	// in round CrashAfter, possibly mid-broadcast; asynchronous: stops
	// after CrashAfter deliveries).
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
	// Target / Target2 parameterize equivocation and lure strategies.
	Target  Vector
	Target2 Vector
	// CrashAfter parameterizes StrategyCrash (see Strategy docs).
	CrashAfter int
}

// SimulateExact runs Exact BVC (§2.2) in the lock-step synchronous
// simulator. inputs[i] is ignored for Byzantine slots (pass nil).
func SimulateExact(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	return simulateSyncEIG(cfg, inputs, byz, opts, false)
}

// SimulateCoordinateWise runs the scalar-consensus-per-dimension baseline;
// it satisfies agreement and per-dimension scalar validity but can violate
// vector validity (the paper's motivating counterexample; experiment E8).
func SimulateCoordinateWise(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	return simulateSyncEIG(cfg, inputs, byz, opts, true)
}

func simulateSyncEIG(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions, coordWise bool) (*Result, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	params.Engine = opts.Engine.engine()
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("bvc: %d inputs for n=%d", len(inputs), cfg.N)
	}
	byzMap, err := byzIndex(cfg, byz)
	if err != nil {
		return nil, err
	}

	variant := ExactSync
	nodes := make([]sim.SyncNode, cfg.N)
	decide := make([]func() (geometry.Vector, error), cfg.N)
	rounds := params.F + 1
	mkCorrect := func(i int, input Vector) (sim.SyncNode, func() (geometry.Vector, error), error) {
		if coordWise {
			nd, err := core.NewCoordWiseNode(params, sim.ProcID(i), toGeometry(input))
			if err != nil {
				return nil, nil, err
			}
			return nd, nd.Decision, nil
		}
		nd, err := core.NewExactNode(params, sim.ProcID(i), toGeometry(input))
		if err != nil {
			return nil, nil, err
		}
		return nd, nd.Decision, nil
	}

	for i := 0; i < cfg.N; i++ {
		if b, ok := byzMap[i]; ok {
			nd, err := syncEIGAdversary(cfg, b, rounds, opts.Seed, mkCorrect)
			if err != nil {
				return nil, err
			}
			nodes[i] = nd
			continue
		}
		nd, dec, err := mkCorrect(i, inputs[i])
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		nodes[i] = nd
		decide[i] = dec
	}

	stats, err := sim.RunSync(nodes, rounds+1)
	if err != nil && !errors.Is(err, sim.ErrRoundCap) {
		return nil, err
	}
	return collectSync(variant, cfg, inputs, byzMap, decide, rounds, stats)
}

// SimulateRestrictedSync runs the §4 restricted-round synchronous
// algorithm.
func SimulateRestrictedSync(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	params.Engine = opts.Engine.engine()
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("bvc: %d inputs for n=%d", len(inputs), cfg.N)
	}
	byzMap, err := byzIndex(cfg, byz)
	if err != nil {
		return nil, err
	}
	nodes := make([]sim.SyncNode, cfg.N)
	impls := make([]*core.RestrictedSyncNode, cfg.N)
	rounds := 0
	for i := 0; i < cfg.N; i++ {
		if _, ok := byzMap[i]; ok {
			continue
		}
		nd, err := core.NewRestrictedSyncNode(params, sim.ProcID(i), toGeometry(inputs[i]))
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		impls[i] = nd
		nodes[i] = nd
		if nd.Rounds() > rounds {
			rounds = nd.Rounds()
		}
	}
	for i := 0; i < cfg.N; i++ {
		if b, ok := byzMap[i]; ok {
			nd, err := restrictedSyncAdversary(cfg, b, rounds, opts.Seed)
			if err != nil {
				return nil, err
			}
			nodes[i] = nd
		}
	}
	stats, err := sim.RunSync(nodes, rounds+1)
	if err != nil && !errors.Is(err, sim.ErrRoundCap) {
		return nil, err
	}
	decide := make([]func() (geometry.Vector, error), cfg.N)
	for i := 0; i < cfg.N; i++ {
		if impls[i] != nil {
			decide[i] = impls[i].Decision
		}
	}
	res, err := collectSync(RestrictedSync, cfg, inputs, byzMap, decide, rounds, stats)
	if err != nil {
		return nil, err
	}
	// Attach per-round histories.
	for i := range res.Processes {
		if impls[i] != nil {
			for _, h := range impls[i].History() {
				res.Processes[i].History = append(res.Processes[i].History, fromGeometry(h))
			}
		}
	}
	return res, nil
}

// SimulateApproxAsync runs the §3.2 asynchronous approximate algorithm on
// the deterministic discrete-event simulator.
func SimulateApproxAsync(cfg Config, inputs []Vector, byz []Byzantine, opts SimOptions) (*Result, error) {
	acfg, err := cfg.asyncConfig()
	if err != nil {
		return nil, err
	}
	acfg.Engine = opts.Engine.engine()
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("bvc: %d inputs for n=%d", len(inputs), cfg.N)
	}
	byzMap, err := byzIndex(cfg, byz)
	if err != nil {
		return nil, err
	}
	nodes := make([]sim.Node, cfg.N)
	impls := make([]*core.AsyncNode, cfg.N)
	rounds := 0
	for i := 0; i < cfg.N; i++ {
		if _, ok := byzMap[i]; ok {
			continue
		}
		nd, err := core.NewAsyncNode(acfg, sim.ProcID(i), toGeometry(inputs[i]))
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		impls[i] = nd
		nodes[i] = nd
		if nd.Rounds() > rounds {
			rounds = nd.Rounds()
		}
	}
	for i := 0; i < cfg.N; i++ {
		if b, ok := byzMap[i]; ok {
			nd, err := asyncAdversary(cfg, acfg, b, rounds, inputs, impls)
			if err != nil {
				return nil, err
			}
			nodes[i] = nd
		}
	}
	stats, err := runAsyncEngine(cfg, opts, nodes)
	if err != nil {
		return nil, err
	}
	return collectAsync(ApproxAsync, cfg, inputs, byzMap, stats, func(i int) (geometry.Vector, []geometry.Vector, int, error) {
		if impls[i] == nil {
			return nil, nil, 0, nil
		}
		dec, err := impls[i].Decision()
		if err != nil {
			return nil, nil, 0, err
		}
		return dec, impls[i].History(), impls[i].Rounds(), nil
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
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("bvc: %d inputs for n=%d", len(inputs), cfg.N)
	}
	byzMap, err := byzIndex(cfg, byz)
	if err != nil {
		return nil, err
	}
	nodes := make([]sim.Node, cfg.N)
	impls := make([]*core.RestrictedAsyncNode, cfg.N)
	rounds := 0
	for i := 0; i < cfg.N; i++ {
		if _, ok := byzMap[i]; ok {
			continue
		}
		nd, err := core.NewRestrictedAsyncNode(params, sim.ProcID(i), toGeometry(inputs[i]))
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		impls[i] = nd
		nodes[i] = nd
		if nd.Rounds() > rounds {
			rounds = nd.Rounds()
		}
	}
	for i := 0; i < cfg.N; i++ {
		if b, ok := byzMap[i]; ok {
			nd, err := restrictedAsyncAdversary(cfg, b, rounds)
			if err != nil {
				return nil, err
			}
			nodes[i] = nd
		}
	}
	stats, err := runAsyncEngine(cfg, opts, nodes)
	if err != nil {
		return nil, err
	}
	return collectAsync(RestrictedAsync, cfg, inputs, byzMap, stats, func(i int) (geometry.Vector, []geometry.Vector, int, error) {
		if impls[i] == nil {
			return nil, nil, 0, nil
		}
		dec, err := impls[i].Decision()
		if err != nil {
			return nil, nil, 0, err
		}
		return dec, impls[i].History(), impls[i].Rounds(), nil
	})
}

func runAsyncEngine(cfg Config, opts SimOptions, nodes []sim.Node) (sim.Stats, error) {
	eng, err := sim.NewEngine(sim.Config{
		N:     cfg.N,
		Seed:  opts.Seed,
		Delay: opts.Delay.model(),
	}, nodes)
	if err != nil {
		return sim.Stats{}, err
	}
	return eng.Run()
}

func byzIndex(cfg Config, byz []Byzantine) (map[int]Byzantine, error) {
	out := make(map[int]Byzantine, len(byz))
	for _, b := range byz {
		if b.ID < 0 || b.ID >= cfg.N {
			return nil, fmt.Errorf("bvc: byzantine id %d out of range n=%d", b.ID, cfg.N)
		}
		if _, dup := out[b.ID]; dup {
			return nil, fmt.Errorf("bvc: duplicate byzantine id %d", b.ID)
		}
		out[b.ID] = b
	}
	if len(out) > cfg.F {
		return nil, fmt.Errorf("bvc: %d byzantine processes exceed f=%d", len(out), cfg.F)
	}
	return out, nil
}

func collectSync(variant Variant, cfg Config, inputs []Vector, byzMap map[int]Byzantine,
	decide []func() (geometry.Vector, error), rounds int, stats sim.SyncStats) (*Result, error) {
	res := &Result{Variant: variant, Config: cfg, Messages: stats.Sent}
	for i := 0; i < cfg.N; i++ {
		pr := ProcessResult{ID: i, Rounds: rounds}
		if _, ok := byzMap[i]; ok {
			pr.Byzantine = true
		} else {
			pr.Input = append(Vector(nil), inputs[i]...)
			dec, err := decide[i]()
			if err != nil {
				return nil, fmt.Errorf("bvc: process %d failed to decide: %w", i, err)
			}
			pr.Decision = fromGeometry(dec)
		}
		res.Processes = append(res.Processes, pr)
	}
	return res, nil
}

func collectAsync(variant Variant, cfg Config, inputs []Vector, byzMap map[int]Byzantine,
	stats sim.Stats, get func(i int) (geometry.Vector, []geometry.Vector, int, error)) (*Result, error) {
	res := &Result{Variant: variant, Config: cfg, Messages: stats.Sent, VirtualTime: stats.FinalTime}
	for i := 0; i < cfg.N; i++ {
		pr := ProcessResult{ID: i}
		if _, ok := byzMap[i]; ok {
			pr.Byzantine = true
		} else {
			pr.Input = append(Vector(nil), inputs[i]...)
			dec, history, rounds, err := get(i)
			if err != nil {
				return nil, fmt.Errorf("bvc: process %d failed to decide: %w", i, err)
			}
			pr.Decision = fromGeometry(dec)
			pr.Rounds = rounds
			for _, h := range history {
				pr.History = append(pr.History, fromGeometry(h))
			}
		}
		res.Processes = append(res.Processes, pr)
	}
	return res, nil
}

// syncEIGAdversary maps a Byzantine spec to an EIG-protocol adversary.
func syncEIGAdversary(cfg Config, b Byzantine, rounds int, seed int64,
	mkCorrect func(i int, input Vector) (sim.SyncNode, func() (geometry.Vector, error), error)) (sim.SyncNode, error) {
	switch b.Strategy {
	case StrategySilent:
		return adversary.SilentSync{}, nil
	case StrategyCrash:
		wrapped, _, err := mkCorrect(b.ID, orZero(b.Target, cfg.D))
		if err != nil {
			return nil, err
		}
		crashRound := b.CrashAfter
		if crashRound <= 0 {
			crashRound = 1
		}
		return &adversary.CrashSync{Wrapped: wrapped, CrashRound: crashRound, PartialTo: cfg.N / 2}, nil
	case StrategyEquivocate:
		ta, tb, err := equivTargets(cfg, b)
		if err != nil {
			return nil, err
		}
		return adversary.NewEIGEquivocator(cfg.N, rounds, sim.ProcID(b.ID), func(to sim.ProcID) geometry.Vector {
			if int(to) < cfg.N/2 {
				return ta.Clone()
			}
			return tb.Clone()
		}), nil
	case StrategyRandom:
		box, err := randomBox(cfg)
		if err != nil {
			return nil, err
		}
		return adversary.NewEIGRandom(cfg.N, cfg.D, rounds, box, seededRand(seed, b.ID)), nil
	case StrategyLure:
		if len(b.Target) != cfg.D {
			return nil, fmt.Errorf("bvc: lure target dimension %d, want %d", len(b.Target), cfg.D)
		}
		// A lure in the exact protocol is an honest participant with an
		// extreme input — the strongest protocol-compliant value attack.
		nd, _, err := mkCorrect(b.ID, b.Target)
		if err != nil {
			return nil, err
		}
		return nd, nil
	default:
		return nil, fmt.Errorf("bvc: unknown strategy %d", b.Strategy)
	}
}

func restrictedSyncAdversary(cfg Config, b Byzantine, rounds int, seed int64) (sim.SyncNode, error) {
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
		ta, tb, err := equivTargets(cfg, b)
		if err != nil {
			return nil, err
		}
		return adversary.NewStateEquivocator(cfg.N, rounds, cfg.N/2, ta, tb), nil
	case StrategyRandom:
		box, err := randomBox(cfg)
		if err != nil {
			return nil, err
		}
		return adversary.NewStateRandom(cfg.N, rounds, box, seededRand(seed, b.ID)), nil
	case StrategyLure:
		if len(b.Target) != cfg.D {
			return nil, fmt.Errorf("bvc: lure target dimension %d, want %d", len(b.Target), cfg.D)
		}
		return adversary.NewStateLure(cfg.N, rounds, toGeometry(b.Target)), nil
	default:
		return nil, fmt.Errorf("bvc: unknown strategy %d", b.Strategy)
	}
}

func asyncAdversary(cfg Config, acfg core.AsyncConfig, b Byzantine, rounds int,
	inputs []Vector, _ []*core.AsyncNode) (sim.Node, error) {
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
		ta, tb, err := equivTargets(cfg, b)
		if err != nil {
			return nil, err
		}
		return adversary.NewAsyncEquivocator(cfg.N, rounds, sim.ProcID(b.ID), cfg.N/2, ta, tb), nil
	case StrategyRandom:
		box, err := randomBox(cfg)
		if err != nil {
			return nil, err
		}
		return adversary.NewAsyncRandom(cfg.N, rounds, 4, box), nil
	case StrategyLure:
		if len(b.Target) != cfg.D {
			return nil, fmt.Errorf("bvc: lure target dimension %d, want %d", len(b.Target), cfg.D)
		}
		return adversary.NewAsyncLure(cfg.N, cfg.F, cfg.D, rounds, sim.ProcID(b.ID), toGeometry(b.Target))
	default:
		return nil, fmt.Errorf("bvc: unknown strategy %d", b.Strategy)
	}
}

func restrictedAsyncAdversary(cfg Config, b Byzantine, rounds int) (sim.Node, error) {
	switch b.Strategy {
	case StrategySilent, StrategyCrash:
		return adversary.SilentAsync{}, nil
	case StrategyEquivocate, StrategyLure:
		ta := toGeometry(orZero(b.Target, cfg.D))
		tb := ta
		if b.Strategy == StrategyEquivocate {
			tb = toGeometry(orZero(b.Target2, cfg.D))
		}
		n := cfg.N
		return &adversary.FuncAsync{OnInit: func(api sim.API) {
			for t := 1; t <= rounds; t++ {
				for to := 0; to < n; to++ {
					v := ta
					if b.Strategy == StrategyEquivocate && to >= n/2 {
						v = tb
					}
					api.Send(sim.ProcID(to), core.StateMsg{Round: t, Value: v.Clone()})
				}
			}
		}}, nil
	case StrategyRandom:
		box, err := randomBox(cfg)
		if err != nil {
			return nil, err
		}
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

func equivTargets(cfg Config, b Byzantine) (geometry.Vector, geometry.Vector, error) {
	if len(b.Target) != cfg.D || len(b.Target2) != cfg.D {
		return nil, nil, fmt.Errorf("bvc: equivocation targets must both have dimension %d", cfg.D)
	}
	return toGeometry(b.Target), toGeometry(b.Target2), nil
}

// randomBox is the sample space for random adversaries: the configured
// input box inflated 3×, or a default box when no bounds are set.
func randomBox(cfg Config) (geometry.Box, error) {
	box, err := cfg.box()
	if err != nil {
		return geometry.Box{}, err
	}
	if box.MaxRange() == 0 {
		return geometry.UniformBox(cfg.D, -1, 1), nil
	}
	lo := box.Lo.Clone()
	hi := box.Hi.Clone()
	for i := range lo {
		r := hi[i] - lo[i]
		lo[i] -= r
		hi[i] += r
	}
	return geometry.Box{Lo: lo, Hi: hi}, nil
}

func orZero(v Vector, d int) Vector {
	if len(v) == d {
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
