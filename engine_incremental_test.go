package bvc_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro"
)

// TestIncrementalGammaMatchesFromScratch: the incremental Γ engine — the
// sub-family (prefix) memo, the round-level AverageGamma memo, and every
// warm-started solve behind them — must reproduce the from-scratch ladder
// bit for bit. The reference execution runs on a fresh one-worker engine
// (internal/core's TestAverageGammaMatchesOracle holds the engine to eq. (9)
// computed from its definition); it is compared against executions on one
// engine per worker count ∈ {1, 4, GOMAXPROCS}, each kept warm across the
// whole test, over all four protocol variants × the six adversary
// strategies, extending the engine-options and node-workers determinism
// suites. The compared runs must also actually exercise the incremental
// path (nonzero reuse counters) — a silently cold cache would make this
// test vacuous.
func TestIncrementalGammaMatchesFromScratch(t *testing.T) {
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	engines := make([]*bvc.GammaEngine, len(workerSets))
	for i, workers := range workerSets {
		engines[i] = bvc.NewGammaEngine(workers)
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

	type variantCase struct {
		name string
		d, f int
		n    int // 0 → tight bound
		run  func(cfg bvc.Config, inputs []bvc.Vector, byz []bvc.Byzantine, opts bvc.SimOptions) (*bvc.Result, error)
		cfg  func(n, d, f int) bvc.Config
	}
	variants := []variantCase{
		{
			// f = 2 so Γ(S) routes through the Tverberg lift.
			name: "exact", d: 2, f: 2,
			run: bvc.SimulateExact,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Lo: []float64{0}, Hi: []float64{1}}
			},
		},
		{
			// n one above the tight bound keeps the f = 2 candidate sets
			// strictly above the Lemma-1 threshold: the lift's prefix
			// ((d+1)f+1 = 7) is shorter than the candidate size (8), so the
			// sub-family memo is exercised, and the cell avoids the known
			// fragile tight-bound regime.
			name: "restricted_sync", d: 2, f: 2, n: 10,
			run: bvc.SimulateRestrictedSync,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}, MaxRounds: 3}
			},
		},
		{
			// Witness-optimized: candidate sets are the witness prefixes
			// (size n−f = 5 > d+2 = 4), exercising the Radon-path prefix.
			name: "approx_async", d: 2, f: 1, n: 6,
			run: bvc.SimulateApproxAsync,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Epsilon: 0.1, Lo: []float64{0}, Hi: []float64{1},
					WitnessOptimization: true, MaxRounds: 2}
			},
		},
		{
			name: "restricted_async", d: 2, f: 1,
			run: bvc.SimulateRestrictedAsync,
			cfg: func(n, d, f int) bvc.Config {
				return bvc.Config{N: n, F: f, D: d, Epsilon: 0.25, Lo: []float64{0}, Hi: []float64{1}, MaxRounds: 3}
			},
		},
	}

	delay := bvc.DelaySpec{Kind: bvc.DelayUniform, Min: time.Millisecond, Max: 7 * time.Millisecond}
	rng := rand.New(rand.NewSource(23))
	for _, vc := range variants {
		variant := map[string]bvc.Variant{
			"exact": bvc.ExactSync, "restricted_sync": bvc.RestrictedSync,
			"approx_async": bvc.ApproxAsync, "restricted_async": bvc.RestrictedAsync,
		}[vc.name]
		n := vc.n
		if n == 0 {
			n = bvc.MinProcesses(variant, vc.d, vc.f)
		}
		cfg := vc.cfg(n, vc.d, vc.f)
		for _, adv := range adversaries {
			byz := adv.mk(n, vc.d)
			inputs := make([]bvc.Vector, n)
			for i := range inputs {
				v := make(bvc.Vector, vc.d)
				for l := range v {
					v[l] = rng.Float64()
				}
				inputs[i] = v
			}
			for _, b := range byz {
				inputs[b.ID] = nil
			}
			t.Run(fmt.Sprintf("%s/%s", vc.name, adv.name), func(t *testing.T) {
				logReplayOnFailure(t, 23, 11, cfg,
					fmt.Sprintf(" delay=uniform[1ms,7ms] adversary=%s workers=%v", adv.name, workerSets))
				// Reference: a fresh serial engine.
				ref, err := vc.run(cfg, inputs, byz, bvc.SimOptions{
					Seed: 11, Delay: delay, Engine: bvc.NewGammaEngine(1),
				})
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				want := fingerprint(t, ref)

				reused := false
				for i, workers := range workerSets {
					eng := engines[i]
					before := eng.Counters()
					res, err := vc.run(cfg, inputs, byz, bvc.SimOptions{
						Seed: 11, Delay: delay, Engine: eng,
					})
					if err != nil {
						t.Fatalf("incremental workers=%d: %v", workers, err)
					}
					requireSameFingerprint(t, fmt.Sprintf("incremental workers=%d", workers), want, fingerprint(t, res))
					delta := eng.Counters().Sub(before)
					if delta.CacheHits+delta.PrefixHits+delta.RoundHits > 0 {
						reused = true
					}
				}
				if !reused {
					t.Fatalf("no Γ reuse observed across any cached run — the incremental path is cold")
				}
			})
		}
	}
}
