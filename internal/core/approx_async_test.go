package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// asyncRun wires AsyncNodes (and Byzantine nodes) into the discrete-event
// engine and runs to quiescence.
type asyncRun struct {
	params core.Params
	cfg    core.AsyncConfig
	inputs []geometry.Vector
	nodes  []sim.Node
	impls  []*core.AsyncNode // nil for Byzantine slots
}

func newAsyncRun(t *testing.T, cfg core.AsyncConfig, inputs []geometry.Vector, byz map[int]sim.Node) *asyncRun {
	t.Helper()
	r := &asyncRun{params: cfg.Params, cfg: cfg, inputs: inputs}
	r.nodes = make([]sim.Node, cfg.N)
	r.impls = make([]*core.AsyncNode, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if b, ok := byz[i]; ok {
			r.nodes[i] = b
			continue
		}
		nd, err := core.NewAsyncNode(cfg, sim.ProcID(i), inputs[i])
		if err != nil {
			t.Fatalf("NewAsyncNode(%d): %v", i, err)
		}
		r.impls[i] = nd
		r.nodes[i] = nd
	}
	return r
}

func (r *asyncRun) run(t *testing.T, seed int64, delay sim.DelayModel) sim.Stats {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{
		N:     r.params.N,
		Seed:  seed,
		Delay: delay,
	}, r.nodes)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return stats
}

func (r *asyncRun) execution(t *testing.T) *core.Execution {
	t.Helper()
	ex := &core.Execution{D: r.params.D, F: r.params.F}
	for i := 0; i < r.params.N; i++ {
		o := core.Outcome{ID: i}
		if r.impls[i] != nil {
			o.Correct = true
			o.Input = r.inputs[i]
			dec, err := r.impls[i].Decision()
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
			o.Decision = dec
		}
		ex.Outcomes = append(ex.Outcomes, o)
	}
	return ex
}

// contractionOK checks the Appendix-E bound ρ[t] ≤ (1−γ)·ρ[t−1] over the
// aligned histories of the given (correct) nodes.
func contractionOK(t *testing.T, impls []*core.AsyncNode, gamma float64) {
	t.Helper()
	var hs [][]geometry.Vector
	minLen := -1
	for _, nd := range impls {
		if nd == nil {
			continue
		}
		h := nd.History()
		hs = append(hs, h)
		if minLen < 0 || len(h) < minLen {
			minLen = len(h)
		}
	}
	spread := func(round int) float64 {
		ms := geometry.NewMultiset(hs[0][0].Dim())
		for _, h := range hs {
			if err := ms.Add(h[round]); err != nil {
				t.Fatal(err)
			}
		}
		s, err := ms.SpreadInf()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for round := 1; round < minLen; round++ {
		prev, cur := spread(round-1), spread(round)
		if cur > (1-gamma)*prev+1e-9 {
			t.Errorf("round %d: spread %g > (1−γ)·%g (γ=%g) — Appendix E bound violated",
				round, cur, prev, gamma)
		}
	}
}

func asyncConfig(n, f, d int, eps float64) core.AsyncConfig {
	return core.AsyncConfig{
		Params: core.Params{
			N: n, F: f, D: d,
			Epsilon: eps,
			Bounds:  geometry.UniformBox(d, 0, 1),
		},
	}
}

func TestAsyncAllCorrect(t *testing.T) {
	cfg := asyncConfig(5, 1, 2, 0.2)
	rng := rand.New(rand.NewSource(7))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	r := newAsyncRun(t, cfg, inputs, nil)
	r.run(t, 1, sim.UniformDelay{Min: time.Millisecond, Max: 20 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
	gamma := core.Gamma(core.VariantApproxAsync, cfg.N, cfg.F, false)
	contractionOK(t, r.impls, gamma)
}

func TestAsyncWitnessOptimized(t *testing.T) {
	cfg := asyncConfig(5, 1, 2, 0.2)
	cfg.WitnessOpt = true
	rng := rand.New(rand.NewSource(8))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	r := newAsyncRun(t, cfg, inputs, nil)
	r.run(t, 2, sim.UniformDelay{Min: time.Millisecond, Max: 20 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
	// |Zi| ≤ n per round (Appendix F).
	for i, nd := range r.impls {
		if nd == nil {
			continue
		}
		for round, size := range nd.ZiSizes() {
			if size > cfg.N {
				t.Errorf("node %d round %d: |Zi| = %d > n = %d", i, round+1, size, cfg.N)
			}
		}
	}
	gamma := core.Gamma(core.VariantApproxAsync, cfg.N, cfg.F, true)
	contractionOK(t, r.impls, gamma)
}

func TestAsyncScalarMatchesAADResilience(t *testing.T) {
	// d = 1 gives (d+2)f+1 = 3f+1 — the optimal scalar bound of AAD.
	cfg := asyncConfig(4, 1, 1, 0.1)
	inputs := []geometry.Vector{vec(0), vec(0.3), vec(0.7), vec(1)}
	r := newAsyncRun(t, cfg, inputs, nil)
	r.run(t, 3, sim.ExponentialDelay{Mean: 5 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestAsyncSilentByzantine(t *testing.T) {
	cfg := asyncConfig(5, 1, 2, 0.2)
	rng := rand.New(rand.NewSource(9))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	r := newAsyncRun(t, cfg, inputs, map[int]sim.Node{4: adversary.SilentAsync{}})
	r.run(t, 4, sim.UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestAsyncEquivocatingByzantine(t *testing.T) {
	cfg := asyncConfig(5, 1, 2, 0.2)
	rng := rand.New(rand.NewSource(10))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	rounds := core.RoundBound(core.Gamma(core.VariantApproxAsync, cfg.N, cfg.F, false), 1, cfg.Epsilon)
	byz := adversary.NewAsyncEquivocator(cfg.N, rounds, 2, 2, vec(0, 0), vec(1, 1))
	r := newAsyncRun(t, cfg, inputs, map[int]sim.Node{2: byz})
	r.run(t, 5, sim.UniformDelay{Min: time.Millisecond, Max: 15 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestAsyncLureByzantine(t *testing.T) {
	// The lure adversary honestly disseminates an extreme value each round;
	// validity (decisions inside the correct hull) must still hold.
	cfg := asyncConfig(5, 1, 2, 0.2)
	inputs := []geometry.Vector{
		vec(0.4, 0.4), vec(0.5, 0.5), vec(0.6, 0.4), vec(0.5, 0.6),
		nil, // byz slot
	}
	rounds := core.RoundBound(core.Gamma(core.VariantApproxAsync, cfg.N, cfg.F, false), 1, cfg.Epsilon)
	lure, err := adversary.NewAsyncLure(cfg.N, cfg.F, cfg.D, rounds, 4, vec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := newAsyncRun(t, cfg, inputs, map[int]sim.Node{4: lure})
	r.run(t, 6, sim.UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
	// Decisions stay in the correct hull despite the (1,1) lure: every
	// coordinate must remain within the correct inputs' range [0.4, 0.6].
	for _, o := range ex.Outcomes {
		if !o.Correct {
			continue
		}
		for l, x := range o.Decision {
			if x < 0.4-1e-6 || x > 0.6+1e-6 {
				t.Errorf("process %d decision[%d] = %g pulled outside correct range", o.ID, l, x)
			}
		}
	}
}

func TestAsyncRandomByzantine(t *testing.T) {
	cfg := asyncConfig(5, 1, 2, 0.25)
	rng := rand.New(rand.NewSource(11))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	rounds := core.RoundBound(core.Gamma(core.VariantApproxAsync, cfg.N, cfg.F, false), 1, cfg.Epsilon)
	byz := adversary.NewAsyncRandom(cfg.N, rounds, 3, geometry.UniformBox(cfg.D, -2, 2))
	r := newAsyncRun(t, cfg, inputs, map[int]sim.Node{0: byz})
	r.run(t, 7, sim.UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestAsyncAdversarialScheduling(t *testing.T) {
	// Starve f correct processes: the fast majority must proceed and the
	// starved ones must still decide within ε of everyone.
	cfg := asyncConfig(5, 1, 2, 0.2)
	rng := rand.New(rand.NewSource(12))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	r := newAsyncRun(t, cfg, inputs, nil)
	delay := sim.StarveSenders{
		Inner: sim.ConstantDelay{D: time.Millisecond},
		Slow:  map[sim.ProcID]bool{0: true},
		Extra: 500 * time.Millisecond,
	}
	r.run(t, 13, delay)
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestAsyncCrashByzantine(t *testing.T) {
	cfg := asyncConfig(5, 1, 2, 0.25)
	rng := rand.New(rand.NewSource(14))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	wrapped, err := core.NewAsyncNode(cfg, 3, inputs[3])
	if err != nil {
		t.Fatal(err)
	}
	crash := &adversary.CrashAsync{Wrapped: wrapped, AfterDeliveries: 40}
	r := newAsyncRun(t, cfg, inputs, map[int]sim.Node{3: crash})
	r.run(t, 15, sim.UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestAsyncMaxRoundsOverride(t *testing.T) {
	cfg := asyncConfig(5, 1, 2, 0.2)
	cfg.MaxRounds = 3
	rng := rand.New(rand.NewSource(16))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	r := newAsyncRun(t, cfg, inputs, nil)
	r.run(t, 17, sim.ConstantDelay{D: time.Millisecond})
	for i, nd := range r.impls {
		if nd.Rounds() != 3 {
			t.Errorf("node %d rounds = %d, want 3", i, nd.Rounds())
		}
		if got := len(nd.History()); got != 4 { // input + 3 rounds
			t.Errorf("node %d history length = %d, want 4", i, got)
		}
	}
}

func TestAsyncTerminatesWithinBound(t *testing.T) {
	// The decision must be reached after exactly the analytic round count.
	cfg := asyncConfig(4, 1, 1, 0.1)
	inputs := []geometry.Vector{vec(0), vec(1), vec(0.2), vec(0.9)}
	r := newAsyncRun(t, cfg, inputs, nil)
	r.run(t, 19, sim.ConstantDelay{D: time.Millisecond})
	gamma := core.Gamma(core.VariantApproxAsync, cfg.N, cfg.F, false)
	want := core.RoundBound(gamma, 1, cfg.Epsilon)
	for i, nd := range r.impls {
		if nd.Rounds() != want {
			t.Errorf("node %d used %d rounds, analytic bound %d", i, nd.Rounds(), want)
		}
	}
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestAsyncNodeValidation(t *testing.T) {
	good := asyncConfig(5, 1, 2, 0.1)
	if _, err := core.NewAsyncNode(good, 9, vec(0.5, 0.5)); err == nil {
		t.Error("self out of range: expected error")
	}
	bad := good
	bad.N = 4
	if _, err := core.NewAsyncNode(bad, 0, vec(0.5, 0.5)); err == nil {
		t.Error("n below bound: expected error")
	}
	if _, err := core.NewAsyncNode(good, 0, vec(5, 5)); err == nil {
		t.Error("input outside bounds: expected error")
	}
	nd, err := core.NewAsyncNode(good, 0, vec(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Decision(); err == nil {
		t.Error("expected not-terminated error")
	}
}

func TestAsyncF2TwoByzantine(t *testing.T) {
	// d = 1, f = 2 → n = 7; silent + equivocating colluders. Lingering
	// after decision is what keeps this configuration live.
	cfg := asyncConfig(7, 2, 1, 0.25)
	rng := rand.New(rand.NewSource(20))
	inputs := boxInputs(rng, cfg.N, cfg.D, 0, 1)
	rounds := core.RoundBound(core.Gamma(core.VariantApproxAsync, cfg.N, cfg.F, false), 1, cfg.Epsilon)
	eq := adversary.NewAsyncEquivocator(cfg.N, rounds, 5, 3, vec(0), vec(1))
	r := newAsyncRun(t, cfg, inputs, map[int]sim.Node{
		5: eq,
		6: adversary.SilentAsync{},
	})
	r.run(t, 21, sim.UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond})
	ex := r.execution(t)
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-6); err != nil {
		t.Fatalf("verification: %v", err)
	}
}
