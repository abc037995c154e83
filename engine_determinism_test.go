package bvc_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro"
)

// decisionsKey flattens a run's per-process decisions for bit-exact
// comparison.
func decisionsKey(t *testing.T, res *bvc.Result) []float64 {
	t.Helper()
	var out []float64
	for _, p := range res.Processes {
		out = append(out, p.Decision...)
	}
	return out
}

// fingerprint flattens everything observable about a run — message and
// round counts, virtual time, and every process's decision and per-round
// history — into one comparable vector. Two runs are "the same execution"
// iff their fingerprints match bit-for-bit.
func fingerprint(t *testing.T, res *bvc.Result) []float64 {
	t.Helper()
	out := []float64{float64(res.Messages), float64(res.VirtualTime)}
	for _, p := range res.Processes {
		out = append(out, float64(p.ID), float64(p.Rounds))
		out = append(out, p.Decision...)
		for _, h := range p.History {
			out = append(out, h...)
		}
	}
	return out
}

// logReplayOnFailure arranges for a failing subtest to print everything
// needed to replay it standalone: the master seed of the input stream (the
// shared rng is consumed in case-declaration order, so the seed plus the
// subtest name pin the inputs), the per-run simulation seed, and the
// config tuple. Keep the printed tuple in sync when adding cases.
func logReplayOnFailure(t *testing.T, masterSeed, simSeed int64, cfg bvc.Config, extra string) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		t.Logf("replay standalone: go test -run '%s' .  [master input seed %d (inputs drawn in case order), sim seed %d, config n=%d d=%d f=%d eps=%g maxRounds=%d%s]",
			t.Name(), masterSeed, simSeed, cfg.N, cfg.D, cfg.F, cfg.Epsilon, cfg.MaxRounds, extra)
	})
}

func requireSameFingerprint(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fingerprint length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: fingerprint[%d] = %x, want %x", label, i, got[i], want[i])
		}
	}
}

// TestSimulateDeterministicAcrossEngineOptions: end-to-end property — the
// decisions of every protocol variant are byte-identical for workers ∈
// {1, 4, GOMAXPROCS} with the Γ-point cache on or off, across random
// instances. The GammaEngine a simulation runs on is a pure performance
// knob.
func TestSimulateDeterministicAcrossEngineOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}

	type runFn func(opts bvc.SimOptions) (*bvc.Result, error)
	mkInputs := func(n, d int) []bvc.Vector {
		out := make([]bvc.Vector, n)
		for i := range out {
			v := make(bvc.Vector, d)
			for l := range v {
				v[l] = rng.Float64()
			}
			out[i] = v
		}
		return out
	}

	cases := map[string]runFn{}
	caseCfgs := map[string]bvc.Config{}
	{
		d, f := 2, 2
		n := bvc.MinProcesses(bvc.ExactSync, d, f)
		cfg := bvc.Config{N: n, F: f, D: d}
		inputs := mkInputs(n, d)
		caseCfgs["exact_d2f2"] = cfg
		cases["exact_d2f2"] = func(opts bvc.SimOptions) (*bvc.Result, error) {
			return bvc.SimulateExact(cfg, inputs, nil, opts)
		}
	}
	{
		d, f := 2, 1
		n := bvc.MinProcesses(bvc.RestrictedSync, d, f)
		cfg := bvc.Config{N: n, F: f, D: d, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}}
		inputs := mkInputs(n, d)
		caseCfgs["restricted_sync_d2f1"] = cfg
		cases["restricted_sync_d2f1"] = func(opts bvc.SimOptions) (*bvc.Result, error) {
			return bvc.SimulateRestrictedSync(cfg, inputs, nil, opts)
		}
	}
	{
		d, f := 1, 2
		n := bvc.MinProcesses(bvc.ApproxAsync, d, f)
		cfg := bvc.Config{N: n, F: f, D: d, Epsilon: 0.1, Lo: []float64{0}, Hi: []float64{1}, MaxRounds: 3}
		inputs := mkInputs(n, d)
		caseCfgs["approx_async_d1f2"] = cfg
		cases["approx_async_d1f2"] = func(opts bvc.SimOptions) (*bvc.Result, error) {
			return bvc.SimulateApproxAsync(cfg, inputs, nil, opts)
		}
	}

	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			logReplayOnFailure(t, 99, 5, caseCfgs[name], "")
			var want []float64
			for _, workers := range workerSets {
				for _, noCache := range []bool{false, true} {
					res, err := run(bvc.SimOptions{Seed: 5, Engine: bvc.NewGammaEngine(workers, !noCache)})
					if err != nil {
						t.Fatalf("workers=%d noCache=%v: %v", workers, noCache, err)
					}
					got := decisionsKey(t, res)
					if want == nil {
						want = got
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("workers=%d noCache=%v: %d decision coords, want %d", workers, noCache, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("workers=%d noCache=%v: decision coord %d = %x, want %x",
								workers, noCache, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestSimulateDeterministicAcrossNodeWorkers: every protocol variant, under
// every delay kind and adversary strategy, produces a bit-identical
// execution (decisions, per-round histories, round counts, message counts,
// virtual time) on a serial uncached Γ engine, a parallel memoized one and
// the shared default engine. The simulators step nodes serially, so the Γ
// engine is the only parallel layer under a run; the test keeps the name
// it had when the grid also varied the simulators' own node workers.
func TestSimulateDeterministicAcrossNodeWorkers(t *testing.T) {
	engines := []struct {
		name string
		mk   func() *bvc.GammaEngine
	}{
		{"serial uncached", func() *bvc.GammaEngine { return bvc.NewGammaEngine(1, false) }},
		{"parallel memoized", func() *bvc.GammaEngine { return bvc.NewGammaEngine(0, true) }},
		{"default", func() *bvc.GammaEngine { return nil }},
	}
	delayKinds := []struct {
		name string
		spec bvc.DelaySpec
	}{
		{"constant", bvc.DelaySpec{Kind: bvc.DelayConstant, Mean: time.Millisecond}},
		{"uniform", bvc.DelaySpec{Kind: bvc.DelayUniform, Min: time.Millisecond, Max: 9 * time.Millisecond}},
		{"exponential", bvc.DelaySpec{Kind: bvc.DelayExponential, Mean: 4 * time.Millisecond}},
	}
	adversaries := []struct {
		name string
		mk   func(n, d int) []bvc.Byzantine
	}{
		{"none", func(int, int) []bvc.Byzantine { return nil }},
		{"silent", func(n, d int) []bvc.Byzantine {
			return []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategySilent}}
		}},
		{"crash", func(n, d int) []bvc.Byzantine {
			return []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategyCrash, CrashAfter: 1}}
		}},
		{"equivocate", func(n, d int) []bvc.Byzantine {
			lo := make(bvc.Vector, d)
			hi := make(bvc.Vector, d)
			for i := range hi {
				hi[i] = 1
			}
			return []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategyEquivocate, Target: lo, Target2: hi}}
		}},
		{"random", func(n, d int) []bvc.Byzantine {
			return []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategyRandom}}
		}},
		{"lure", func(n, d int) []bvc.Byzantine {
			hi := make(bvc.Vector, d)
			for i := range hi {
				hi[i] = 1
			}
			return []bvc.Byzantine{{ID: n - 1, Strategy: bvc.StrategyLure, Target: hi}}
		}},
	}

	rng := rand.New(rand.NewSource(41))
	mkInputs := func(n, d int, byz []bvc.Byzantine) []bvc.Vector {
		out := make([]bvc.Vector, n)
		for i := range out {
			v := make(bvc.Vector, d)
			for l := range v {
				v[l] = rng.Float64()
			}
			out[i] = v
		}
		for _, b := range byz {
			out[b.ID] = nil
		}
		return out
	}

	type variantCase struct {
		name      string
		d, f      int
		usesDelay bool
		run       func(cfg bvc.Config, inputs []bvc.Vector, byz []bvc.Byzantine, opts bvc.SimOptions) (*bvc.Result, error)
		cfg       func(n, d, f int) bvc.Config
	}
	variants := []variantCase{
		{
			name: "exact", d: 2, f: 2, usesDelay: false,
			run: bvc.SimulateExact,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Lo: []float64{0}, Hi: []float64{1}}
			},
		},
		{
			name: "restricted_sync", d: 2, f: 1, usesDelay: false,
			run: bvc.SimulateRestrictedSync,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}}
			},
		},
		{
			name: "approx_async", d: 1, f: 1, usesDelay: true,
			run: bvc.SimulateApproxAsync,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Epsilon: 0.1, Lo: []float64{0}, Hi: []float64{1}, MaxRounds: 3}
			},
		},
		{
			name: "restricted_async", d: 1, f: 1, usesDelay: true,
			run: bvc.SimulateRestrictedAsync,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Epsilon: 0.25, Lo: []float64{0}, Hi: []float64{1}}
			},
		},
	}

	for _, vc := range variants {
		variant := map[string]bvc.Variant{
			"exact": bvc.ExactSync, "restricted_sync": bvc.RestrictedSync,
			"approx_async": bvc.ApproxAsync, "restricted_async": bvc.RestrictedAsync,
		}[vc.name]
		n := bvc.MinProcesses(variant, vc.d, vc.f)
		cfg := vc.cfg(n, vc.d, vc.f)
		delays := delayKinds
		if !vc.usesDelay {
			// The lock-step engines ignore the delay model; one delay row
			// suffices and the grid stays affordable.
			delays = delayKinds[:1]
		}
		for _, dk := range delays {
			for _, adv := range adversaries {
				byz := adv.mk(n, vc.d)
				inputs := mkInputs(n, vc.d, byz)
				t.Run(fmt.Sprintf("%s/%s/%s", vc.name, dk.name, adv.name), func(t *testing.T) {
					logReplayOnFailure(t, 41, 7, cfg,
						fmt.Sprintf(" delay=%s adversary=%s", dk.name, adv.name))
					var want []float64
					for _, eng := range engines {
						res, err := vc.run(cfg, inputs, byz, bvc.SimOptions{
							Seed: 7, Delay: dk.spec, Engine: eng.mk(),
						})
						if err != nil {
							t.Fatalf("%s engine: %v", eng.name, err)
						}
						got := fingerprint(t, res)
						if want == nil {
							want = got
							continue
						}
						requireSameFingerprint(t, eng.name+" engine", want, got)
					}
				})
			}
		}
	}
}
