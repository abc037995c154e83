package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro"
	"repro/internal/combin"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// E2ExactSufficiency runs Exact BVC at the tight bound across a (d, f) grid
// and the full adversary library, verifying Agreement, Validity and
// Termination on every execution (Theorem 3).
func E2ExactSufficiency(seed int64, opts bvc.SimOptions) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Exact BVC sufficiency (synchronous) at n = max(3f+1, (d+1)f+1)",
		Claim: "Theorem 3: the §2.2 algorithm achieves Exact BVC at the tight bound",
		Columns: []string{
			"d", "f", "n", "adversary", "rounds", "messages", "agreement", "validity",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))
	type advCase struct {
		name string
		mk   func(cfg bvc.Config) []bvc.Byzantine
	}
	mkTargets := func(cfg bvc.Config) (bvc.Vector, bvc.Vector) {
		a := make(bvc.Vector, cfg.D)
		b := make(bvc.Vector, cfg.D)
		for i := 0; i < cfg.D; i++ {
			a[i] = -3
			b[i] = 7
		}
		return a, b
	}
	cases := []advCase{
		{name: "none", mk: func(bvc.Config) []bvc.Byzantine { return nil }},
		{name: "silent", mk: func(cfg bvc.Config) []bvc.Byzantine {
			return []bvc.Byzantine{{ID: cfg.N - 1, Strategy: bvc.StrategySilent}}
		}},
		{name: "crash", mk: func(cfg bvc.Config) []bvc.Byzantine {
			return []bvc.Byzantine{{ID: cfg.N - 1, Strategy: bvc.StrategyCrash, CrashAfter: 1}}
		}},
		{name: "equivocate", mk: func(cfg bvc.Config) []bvc.Byzantine {
			a, b := mkTargets(cfg)
			return []bvc.Byzantine{{ID: cfg.N - 1, Strategy: bvc.StrategyEquivocate, Target: a, Target2: b}}
		}},
		{name: "random", mk: func(cfg bvc.Config) []bvc.Byzantine {
			return []bvc.Byzantine{{ID: cfg.N - 1, Strategy: bvc.StrategyRandom}}
		}},
		{name: "lure", mk: func(cfg bvc.Config) []bvc.Byzantine {
			a, _ := mkTargets(cfg)
			return []bvc.Byzantine{{ID: cfg.N - 1, Strategy: bvc.StrategyLure, Target: a}}
		}},
	}
	for _, df := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}} {
		d, f := df[0], df[1]
		n := bvc.MinProcesses(bvc.ExactSync, d, f)
		cfg := bvc.Config{N: n, F: f, D: d, Lo: []float64{0}, Hi: []float64{1}}
		for _, c := range cases {
			byz := c.mk(cfg)
			inputs := UniformInputs(rng, n, d, 0, 1)
			for _, b := range byz {
				inputs[b.ID] = nil
			}
			res, err := bvc.SimulateExact(cfg, inputs, byz, runOpts(opts, seed, bvc.DelaySpec{}))
			if err != nil {
				return nil, fmt.Errorf("E2 d=%d f=%d %s: %w", d, f, c.name, err)
			}
			agreeOK := res.VerifyExact() == nil
			validOK := res.VerifyValidity() == nil
			if !agreeOK || !validOK {
				t.Pass = false
			}
			t.AddRow(d, f, n, c.name, f+1, res.Messages, check(agreeOK), check(validOK))
		}
	}
	return t, nil
}

// E5AsyncConvergence measures the per-round range contraction of the §3.2
// asynchronous algorithm against the analytic bound (1−γ)^t, then runs the
// full termination rule and verifies ε-agreement and validity (Theorem 5).
// The per-round series is the repository's "figure" for the convergence
// behaviour.
func E5AsyncConvergence(seed int64, opts bvc.SimOptions) (*Table, error) {
	const (
		n, f, d   = 5, 1, 2
		eps       = 0.05
		fixRounds = 15
	)
	gamma := bvc.Gamma(bvc.ApproxAsync, n, f, false)
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("Approximate BVC convergence (asynchronous), n=%d f=%d d=%d, γ=%.4g", n, f, d, gamma),
		Claim: "Theorem 5 / eq. (12): ρ[t] ≤ (1−γ)·ρ[t−1]; termination after 1+⌈log_{1/(1−γ)}((U−ν)/ε)⌉ rounds",
		Columns: []string{
			"round t", "measured ρ[t]", "bound ρ[0]·(1−γ)^t", "within bound",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := bvc.Config{
		N: n, F: f, D: d, Epsilon: eps,
		Lo: []float64{0}, Hi: []float64{1},
		MaxRounds: fixRounds,
	}
	inputs := UniformInputs(rng, n, d, 0, 1)
	inputs[n-1] = nil
	byz := []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategyLure, Target: bvc.Vector{1, 1}}}
	// Starve one correct process: under a homogeneous schedule every
	// correct process assembles the identical B set and the range
	// collapses in one round; the adversarial schedule below keeps the
	// B sets heterogeneous, exposing the actual contraction behaviour
	// the (1−γ) bound quantifies over.
	delay := bvc.DelaySpec{
		Kind: bvc.DelayExponential, Mean: 4 * time.Millisecond,
		StarveSet: []int{0}, StarveExtra: 40 * time.Millisecond,
	}
	res, err := bvc.SimulateApproxAsync(cfg, inputs, byz, runOpts(opts, seed, delay))
	if err != nil {
		return nil, err
	}
	spreads := historySpreads(res)
	if len(spreads) == 0 {
		return nil, fmt.Errorf("E5: no histories recorded")
	}
	rho0 := spreads[0]
	bound := rho0
	for round := 1; round < len(spreads); round++ {
		bound *= 1 - gamma
		ok := spreads[round] <= bound+1e-9
		if !ok {
			t.Pass = false
		}
		t.AddRow(round, spreads[round], bound, check(ok))
	}

	// Full run with the analytic termination rule.
	cfg.MaxRounds = 0
	full, err := bvc.SimulateApproxAsync(cfg, inputs, byz, runOpts(opts, seed+1, delay))
	if err != nil {
		return nil, err
	}
	if err := full.VerifyApprox(); err != nil {
		t.Pass = false
		t.Notes = append(t.Notes, "full run verification failed: "+err.Error())
	}
	var rounds int
	for _, p := range full.Processes {
		if !p.Byzantine {
			rounds = p.Rounds
			break
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("full run: ε=%g ⇒ %d rounds (analytic bound %d), %d messages, ε-agreement and validity verified",
			eps, rounds, bvc.RoundBound(gamma, 1, eps), full.Messages),
		"measured contraction is drastically faster than the worst-case (1−γ) bound: the witness exchange",
		"forces |Bi∩Bj| ≥ n−f, and under realistic schedules the B sets coincide entirely, collapsing the",
		"range in one round — the slow geometric decay the bound allows needs a surgical adversarial schedule",
		"(see F2 for a visible contraction curve under the restricted round structure)")
	return t, nil
}

// F2ConvergenceSeries is the repository's convergence "figure": the
// per-round range ρ[t] of the restricted asynchronous algorithm (whose
// first-n−f−1-arrivals structure keeps the per-process views heterogeneous,
// unlike the strongly synchronizing witness exchange of E5) against the
// analytic (1−γ)^t envelope.
func F2ConvergenceSeries(seed int64, opts bvc.SimOptions) (*Table, error) {
	const (
		n, f, d = 7, 1, 2
		eps     = 0.05
	)
	gamma := bvc.Gamma(bvc.RestrictedAsync, n, f, false)
	t := &Table{
		ID:    "F2",
		Title: fmt.Sprintf("Convergence figure: restricted async BVC range per round (n=%d f=%d d=%d, γ=%.4g)", n, f, d, gamma),
		Claim: "eq. (13): ρ[t] ≤ (1−γ)^t·ρ[0]; measured decay is much faster",
		Columns: []string{
			"round t", "measured ρ[t]", "ρ[t]/ρ[t−1]", "bound ρ[0]·(1−γ)^t", "within bound",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := bvc.Config{N: n, F: f, D: d, Epsilon: eps, Lo: []float64{0}, Hi: []float64{1}}
	inputs := UniformInputs(rng, n, d, 0, 1)
	inputs[n-1] = nil
	byz := []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategyEquivocate,
		Target: make(bvc.Vector, d), Target2: bvc.Vector{1, 1}}}
	res, err := bvc.SimulateRestrictedAsync(cfg, inputs, byz, runOpts(opts, seed,
		bvc.DelaySpec{Kind: bvc.DelayExponential, Mean: 10 * time.Millisecond}))
	if err != nil {
		return nil, err
	}
	if err := res.VerifyApprox(); err != nil {
		t.Pass = false
		t.Notes = append(t.Notes, "verification failed: "+err.Error())
	}
	spreads := historySpreads(res)
	if len(spreads) == 0 {
		return nil, fmt.Errorf("F2: no histories recorded")
	}
	bound := spreads[0]
	maxRows := len(spreads)
	if maxRows > 13 {
		maxRows = 13 // the tail is all ~0; keep the figure readable
	}
	for round := 1; round < maxRows; round++ {
		bound *= 1 - gamma
		ratio := 0.0
		if spreads[round-1] > 0 {
			ratio = spreads[round] / spreads[round-1]
		}
		ok := spreads[round] <= bound+1e-9
		if !ok {
			t.Pass = false
		}
		t.AddRow(round, spreads[round], ratio, bound, check(ok))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("ρ[0] = %.4g; rounds executed: %d; series truncated once ρ ≈ 0", spreads[0], len(spreads)-1),
		"measured per-round ratio ≈ 0.1–0.5, far below the worst-case 1−γ ≈ "+fmt.Sprintf("%.4f", 1-gamma))
	return t, nil
}

// E6RestrictedSync validates the §4 restricted synchronous algorithm at
// n = (d+2)f+1 across adversaries, and demonstrates why (d+2)f does not
// suffice: a candidate set of n−f = (d+1)f states can have an empty safe
// area, leaving Step 2 with nothing to choose.
func E6RestrictedSync(seed int64, opts bvc.SimOptions) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Restricted-round synchronous BVC at n = (d+2)f+1",
		Claim: "Theorem 6 (sync): n ≥ (d+2)f+1 is necessary and sufficient with the restricted structure",
		Columns: []string{
			"d", "f", "n", "adversary", "rounds", "ε-agreement", "validity",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, df := range [][2]int{{1, 1}, {2, 1}} {
		d, f := df[0], df[1]
		n := bvc.MinProcesses(bvc.RestrictedSync, d, f)
		cfg := bvc.Config{N: n, F: f, D: d, Epsilon: 0.1, Lo: []float64{0}, Hi: []float64{1}}
		one := make(bvc.Vector, d)
		zero := make(bvc.Vector, d)
		for i := range one {
			one[i] = 1
		}
		cases := map[string][]bvc.Byzantine{
			"none":       nil,
			"silent":     {{ID: n - 1, Strategy: bvc.StrategySilent}},
			"equivocate": {{ID: n - 1, Strategy: bvc.StrategyEquivocate, Target: zero, Target2: one}},
			"lure":       {{ID: n - 1, Strategy: bvc.StrategyLure, Target: one}},
			"random":     {{ID: n - 1, Strategy: bvc.StrategyRandom}},
		}
		for _, name := range []string{"none", "silent", "equivocate", "lure", "random"} {
			byz := cases[name]
			inputs := UniformInputs(rng, n, d, 0, 1)
			for _, b := range byz {
				inputs[b.ID] = nil
			}
			res, err := bvc.SimulateRestrictedSync(cfg, inputs, byz, runOpts(opts, seed, bvc.DelaySpec{}))
			if err != nil {
				return nil, fmt.Errorf("E6 d=%d %s: %w", d, name, err)
			}
			epsOK := res.VerifyApprox() == nil
			validOK := res.VerifyValidity() == nil
			if !epsOK || !validOK {
				t.Pass = false
			}
			var rounds int
			for _, p := range res.Processes {
				if !p.Byzantine {
					rounds = p.Rounds
					break
				}
			}
			t.AddRow(d, f, n, name, rounds, check(epsOK), check(validOK))
		}
	}
	// Below the bound: with n = (d+2)f, a candidate set has only
	// (d+1)f states — Lemma 1 no longer applies, and the proof's basis
	// instance makes Γ empty.
	d, f := 2, 1
	bad := []bvc.Vector{{1, 0}, {0, 1}, {0, 0}} // (d+1)f = 3 states
	empty, err := bvc.SafeAreaEmpty(bad, f)
	if err != nil {
		return nil, err
	}
	if !empty {
		t.Pass = false
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("below the bound (n=(d+2)f, d=%d f=%d): a candidate set of (d+1)f states can have empty Γ — Step 2 impossible: %s",
			d, f, check(empty)))
	return t, nil
}

// E7RestrictedAsync validates the §4 restricted asynchronous algorithm at
// n = (d+4)f+1 under benign and adversarial schedules (Theorem 6).
func E7RestrictedAsync(seed int64, opts bvc.SimOptions) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Restricted-round asynchronous BVC at n = (d+4)f+1",
		Claim: "Theorem 6 (async): n ≥ (d+4)f+1 is necessary and sufficient with the restricted structure",
		Columns: []string{
			"d", "f", "n", "schedule", "adversary", "rounds", "messages", "ε-agreement", "validity",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, df := range [][2]int{{1, 1}, {2, 1}} {
		d, f := df[0], df[1]
		n := bvc.MinProcesses(bvc.RestrictedAsync, d, f)
		cfg := bvc.Config{N: n, F: f, D: d, Epsilon: 0.1, Lo: []float64{0}, Hi: []float64{1}}
		one := make(bvc.Vector, d)
		for i := range one {
			one[i] = 1
		}
		type runCase struct {
			schedule string
			delay    bvc.DelaySpec
			advName  string
			byz      []bvc.Byzantine
		}
		cases := []runCase{
			{"uniform", bvc.DelaySpec{Kind: bvc.DelayUniform, Min: time.Millisecond, Max: 10 * time.Millisecond}, "none", nil},
			{"exponential", bvc.DelaySpec{Kind: bvc.DelayExponential, Mean: 5 * time.Millisecond}, "equivocate",
				[]bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategyEquivocate, Target: make(bvc.Vector, d), Target2: one}}},
			{"starve-1-correct", bvc.DelaySpec{
				Kind: bvc.DelayConstant, Mean: time.Millisecond,
				StarveSet: []int{0}, StarveExtra: 250 * time.Millisecond,
			}, "silent", []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategySilent}}},
		}
		for _, c := range cases {
			inputs := UniformInputs(rng, n, d, 0, 1)
			for _, b := range c.byz {
				inputs[b.ID] = nil
			}
			res, err := bvc.SimulateRestrictedAsync(cfg, inputs, c.byz, runOpts(opts, seed, c.delay))
			if err != nil {
				return nil, fmt.Errorf("E7 d=%d %s: %w", d, c.schedule, err)
			}
			epsOK := res.VerifyApprox() == nil
			validOK := res.VerifyValidity() == nil
			if !epsOK || !validOK {
				t.Pass = false
			}
			var rounds int
			for _, p := range res.Processes {
				if !p.Byzantine {
					rounds = p.Rounds
					break
				}
			}
			t.AddRow(d, f, n, c.schedule, c.advName, rounds, res.Messages, check(epsOK), check(validOK))
		}
	}
	t.Notes = append(t.Notes,
		"the asynchronous restricted bound exceeds the AAD-based bound by 2f — the paper's stated price of the simpler round structure")
	return t, nil
}

// E8CoordinateWise reproduces the paper's §1 counterexample: coordinate-wise
// scalar consensus satisfies per-dimension validity yet leaves the convex
// hull of the correct inputs (it even leaves the probability simplex), while
// Exact BVC on the same workload does not.
func E8CoordinateWise(seed int64, opts bvc.SimOptions) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Coordinate-wise scalar consensus violates vector validity",
		Claim: "§1: scalar consensus per dimension does not solve vector consensus",
		Columns: []string{
			"workload", "algorithm", "n", "decision", "coord sum", "in correct hull",
		},
		Pass: true,
	}

	// The paper's exact instance.
	paperInputs := []bvc.Vector{
		{2.0 / 3, 1.0 / 6, 1.0 / 6},
		{1.0 / 6, 2.0 / 3, 1.0 / 6},
		{1.0 / 6, 1.0 / 6, 2.0 / 3},
		nil,
	}
	byz := []bvc.Byzantine{{ID: 3, Strategy: bvc.StrategyLure, Target: bvc.Vector{0, 0, 0}}}
	cw, err := bvc.SimulateCoordinateWise(bvc.Config{N: 4, F: 1, D: 3}, paperInputs, byz, runOpts(opts, seed, bvc.DelaySpec{}))
	if err != nil {
		return nil, err
	}
	cwDec := cw.Decisions()[0]
	cwValid := cw.VerifyValidity() == nil
	if cwValid {
		t.Pass = false // the whole point is that it must NOT be valid
	}
	t.AddRow("paper §1", "coordinate-wise", 4, fmt.Sprintf("%.4g", cwDec), sum(cwDec), check(cwValid))

	// Exact BVC needs one more process for d = 3 and stays valid.
	bvcInputs := []bvc.Vector{
		paperInputs[0], paperInputs[1], paperInputs[2],
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
		nil,
	}
	byz5 := []bvc.Byzantine{{ID: 4, Strategy: bvc.StrategyLure, Target: bvc.Vector{0, 0, 0}}}
	ex, err := bvc.SimulateExact(bvc.Config{N: 5, F: 1, D: 3}, bvcInputs, byz5, runOpts(opts, seed, bvc.DelaySpec{}))
	if err != nil {
		return nil, err
	}
	exDec := ex.Decisions()[0]
	exValid := ex.VerifyExact() == nil
	if !exValid {
		t.Pass = false
	}
	t.AddRow("paper §1", "Exact BVC", 5, fmt.Sprintf("%.4g", exDec), sum(exDec), check(exValid))

	// Randomized simplex workloads: count violations across seeds.
	rng := rand.New(rand.NewSource(seed))
	violations := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		inputs := SimplexInputs(rng, 4, 3)
		inputs[3] = nil
		res, err := bvc.SimulateCoordinateWise(bvc.Config{N: 4, F: 1, D: 3}, inputs,
			[]bvc.Byzantine{{ID: 3, Strategy: bvc.StrategyLure, Target: bvc.Vector{0, 0, 0}}},
			runOpts(opts, int64(trial), bvc.DelaySpec{}))
		if err != nil {
			return nil, err
		}
		if res.VerifyValidity() != nil {
			violations++
		}
	}
	t.AddRow("random simplex ×10", "coordinate-wise", 4,
		fmt.Sprintf("%d/%d validity violations", violations, trials), "-", "-")
	if violations == 0 {
		t.Notes = append(t.Notes, "warning: no violations on random workloads (paper instance still violates)")
	}
	t.Notes = append(t.Notes,
		"coordinate-wise decision sums to 1/2 on the paper instance — it is not a probability vector",
		"Exact BVC decisions always sum to 1: the simplex is preserved (convexity)")
	return t, nil
}

// E9WitnessAblation compares §3.2's full Zi construction (all C(n, n−f)
// subsets of Bi[t]) with the Appendix-F witness optimization (|Zi| ≤ n):
// candidate-set counts, contraction weights γ, analytic round bounds, and
// measured rounds-to-ε.
func E9WitnessAblation(seed int64) (*Table, error) {
	const (
		n, f, d = 7, 2, 1
		eps     = 0.1
	)
	t := &Table{
		ID:    "E9",
		Title: fmt.Sprintf("Appendix-F witness optimization ablation (n=%d, f=%d, d=%d)", n, f, d),
		Claim: "Appendix F: |Zi| ≤ n with γ = 1/n², vs C(n,n−f) subsets with γ = 1/(n·C(n,n−f))",
		Columns: []string{
			"variant", "γ", "analytic rounds", "measured rounds to ε", "max |Zi|", "messages",
		},
		Pass: true,
	}
	for _, witness := range []bool{false, true} {
		gamma := core.Gamma(core.VariantApproxAsync, n, f, witness)
		analytic := core.RoundBound(gamma, 1, eps)
		cfg := core.AsyncConfig{
			Params: core.Params{
				N: n, F: f, D: d, Epsilon: eps,
				Bounds: geometry.UniformBox(d, 0, 1),
			},
			WitnessOpt: witness,
			MaxRounds:  40, // fixed horizon to measure actual convergence
		}
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]sim.Node, n)
		impls := make([]*core.AsyncNode, n)
		for i := 0; i < n; i++ {
			input := geometry.Vector{rng.Float64()}
			nd, err := core.NewAsyncNode(cfg, sim.ProcID(i), input)
			if err != nil {
				return nil, err
			}
			impls[i] = nd
			nodes[i] = nd
		}
		// Starve two correct processes (f = 2) so B sets differ across
		// processes and convergence takes measurable rounds (see E5).
		eng, err := sim.NewEngine(sim.Config{
			N: n, Seed: seed,
			Delay: sim.StarveSenders{
				Inner: sim.ExponentialDelay{Mean: 4 * time.Millisecond},
				Slow:  map[sim.ProcID]bool{0: true, 1: true},
				Extra: 40 * time.Millisecond,
			},
		}, nodes)
		if err != nil {
			return nil, err
		}
		stats, err := eng.Run()
		if err != nil {
			return nil, err
		}

		// Measured rounds to ε and max |Zi|.
		maxZi := 0
		var hs [][]geometry.Vector
		minLen := -1
		for _, nd := range impls {
			for _, z := range nd.ZiSizes() {
				if z > maxZi {
					maxZi = z
				}
			}
			h := nd.History()
			hs = append(hs, h)
			if minLen < 0 || len(h) < minLen {
				minLen = len(h)
			}
		}
		measured := -1
		for round := 0; round < minLen; round++ {
			col := make([]bvc.Vector, len(hs))
			for i, h := range hs {
				col[i] = bvc.Vector(h[round])
			}
			if spreadInf(col) <= eps {
				measured = round
				break
			}
		}
		if measured < 0 {
			t.Pass = false
			measured = minLen
		}
		name := "full subsets"
		if witness {
			name = "witness-opt"
			if maxZi > n {
				t.Pass = false
			}
		}
		t.AddRow(name, gamma, analytic, measured, maxZi, stats.Sent)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("full: C(%d,%d) = %d candidate sets per round; witness-opt: ≤ %d", n, n-f, combin.Binomial(n, n-f), n),
		"witness-opt wins on both per-round cost and analytic round bound; measured convergence is similar",
	)
	return t, nil
}

func sum(v bvc.Vector) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// All runs every experiment in ExperimentOrder on the engine choice of opts
// (see Runners) and returns the tables.
func All(seed int64, opts bvc.SimOptions) ([]*Table, error) {
	runners := Runners(seed, 20, opts)
	out := make([]*Table, 0, len(ExperimentOrder))
	for _, name := range ExperimentOrder {
		tbl, err := runners[name]()
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", strings.ToUpper(name), err)
		}
		out = append(out, tbl)
	}
	return out, nil
}
