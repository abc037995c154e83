// Benchmarks: one per reproduced table/figure (E1–E9, F1; the README's
// experiment table summarizes each) plus micro-benchmarks for the ablations
// (Γ-point strategies, Zi construction, broadcast substrate).
//
// Run with: go test -bench=. -benchmem .
package bvc_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/geometry"
	"repro/internal/harness"
	"repro/internal/safearea"
)

// --- Experiment benchmarks (one per table / figure) ---

func BenchmarkE1SyncNecessity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E1SyncNecessity(int64(i))
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE2ExactSufficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E2ExactSufficiency(int64(i), bvc.SimOptions{})
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE3TverbergLemma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E3TverbergLemma(int64(i), 5)
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE4AsyncNecessity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E4AsyncNecessity()
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE5AsyncConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E5AsyncConvergence(int64(i), bvc.SimOptions{})
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE6RestrictedSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E6RestrictedSync(int64(i), bvc.SimOptions{})
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE7RestrictedAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E7RestrictedAsync(int64(i), bvc.SimOptions{})
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE8CoordinateWise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E8CoordinateWise(int64(i), bvc.SimOptions{})
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkE9WitnessAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.E9WitnessAblation(int64(i))
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

func BenchmarkF1Heptagon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := harness.F1Heptagon()
		if err != nil || !tbl.Pass {
			b.Fatalf("pass=%v err=%v", tbl != nil && tbl.Pass, err)
		}
	}
}

// --- Protocol benchmarks across parameters ---

func benchInputs(n, d int, seed int64) []bvc.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bvc.Vector, n)
	for i := range out {
		v := make(bvc.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

func BenchmarkExactBVC(b *testing.B) {
	cases := []struct {
		name string
		d, f int
	}{
		{"d1f1", 1, 1},
		{"d2f1", 2, 1},
		{"d3f1", 3, 1},
		{"d2f2", 2, 2},
	}
	for _, c := range cases {
		n := bvc.MinProcesses(bvc.ExactSync, c.d, c.f)
		cfg := bvc.Config{N: n, F: c.f, D: c.d}
		b.Run(c.name, func(b *testing.B) {
			inputs := benchInputs(n, c.d, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bvc.SimulateExact(cfg, inputs, nil, bvc.SimOptions{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Decisions()) != n {
					b.Fatal("missing decisions")
				}
			}
		})
	}
}

func BenchmarkApproxAsyncRound(b *testing.B) {
	// Cost per protocol execution with a small fixed round budget, full vs
	// witness-optimized Zi — the per-round cost side of the E9 ablation.
	for _, witness := range []struct {
		name string
		opt  bool
	}{{"fullZi", false}, {"witnessZi", true}} {
		b.Run(witness.name, func(b *testing.B) {
			cfg := bvc.Config{
				N: 7, F: 2, D: 1, Epsilon: 0.1,
				Lo: []float64{0}, Hi: []float64{1},
				WitnessOptimization: witness.opt,
				MaxRounds:           3,
			}
			inputs := benchInputs(cfg.N, cfg.D, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bvc.SimulateApproxAsync(cfg, inputs, nil, bvc.SimOptions{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRestrictedSync(b *testing.B) {
	cfg := bvc.Config{N: 5, F: 1, D: 2, Epsilon: 0.3, Lo: []float64{0}, Hi: []float64{1}}
	inputs := benchInputs(cfg.N, cfg.D, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bvc.SimulateRestrictedSync(cfg, inputs, nil, bvc.SimOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestrictedAsync(b *testing.B) {
	cfg := bvc.Config{N: 6, F: 1, D: 1, Epsilon: 0.3, Lo: []float64{0}, Hi: []float64{1}}
	inputs := benchInputs(cfg.N, cfg.D, 4)
	opts := bvc.SimOptions{Delay: bvc.DelaySpec{Kind: bvc.DelayConstant, Mean: time.Millisecond}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := bvc.SimulateRestrictedAsync(cfg, inputs, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Geometry ablation benchmarks (Γ-point strategy ladder) ---

// BenchmarkSafePoint times each rung of the ladder on its own, which only
// safearea.PointWith's explicit methods can name; the exhaustive Tverberg
// search is timed by BenchmarkTverbergSearchHeptagon.
func BenchmarkSafePoint(b *testing.B) {
	multiset := func(points []bvc.Vector) *geometry.Multiset {
		ms := geometry.NewMultiset(len(points[0]))
		for _, p := range points {
			if err := ms.Add(geometry.Vector(p)); err != nil {
				b.Fatal(err)
			}
		}
		return ms
	}
	pointsF1 := multiset(benchInputs(6, 2, 5)) // f=1, |Y|=6, d=2
	pointsF2 := multiset(benchInputs(7, 2, 6)) // f=2, |Y|=7, d=2
	cases := []struct {
		name   string
		points *geometry.Multiset
		f      int
		method safearea.Method
	}{
		{"radon_f1", pointsF1, 1, safearea.MethodRadon},
		{"lexmin_f1", pointsF1, 1, safearea.MethodLexMinLP},
		{"lexmin_f2", pointsF2, 2, safearea.MethodLexMinLP},
		{"lift_f2", pointsF2, 2, safearea.MethodTverbergLift},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := safearea.PointWith(c.points, c.f, c.method); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHullMembership(b *testing.B) {
	points := benchInputs(10, 3, 7)
	z := bvc.Vector{0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bvc.InConvexHull(points, z); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSafeAreaEmptiness(b *testing.B) {
	// The Theorem-1 counterexample instance (always empty).
	basis := []bvc.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 0, 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		empty, err := bvc.SafeAreaEmpty(basis, 1)
		if err != nil || !empty {
			b.Fatalf("empty=%v err=%v", empty, err)
		}
	}
}

func BenchmarkTverbergSearchHeptagon(b *testing.B) {
	points := make([]bvc.Vector, 7)
	for k := range points {
		a := 2 * math.Pi * float64(k) / 7
		points[k] = bvc.Vector{math.Cos(a), math.Sin(a)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, found, err := bvc.TverbergPartition(points, 3)
		if err != nil || !found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}
