package tverberg

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// TestLiftRandom: Lift must produce a verified Tverberg partition on random
// multisets at the Tverberg number (and above it) across a (d, r) grid —
// including the sizes the scale experiments use (d=3, r=4 ⇒ 13 points).
func TestLiftRandom(t *testing.T) {
	cases := []struct{ d, r, extra int }{
		{1, 2, 0}, {1, 3, 0}, {2, 2, 0}, {2, 3, 0}, {2, 3, 2},
		{3, 3, 0}, {3, 4, 0}, {3, 4, 3}, {4, 3, 0}, {5, 2, 4},
	}
	for _, c := range cases {
		size := (c.d+1)*(c.r-1) + 1 + c.extra
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(c.d*100+c.r*10+c.extra)))
			ms := geometry.NewMultiset(c.d)
			for i := 0; i < size; i++ {
				v := geometry.NewVector(c.d)
				for j := range v {
					v[j] = rng.Float64()*10 - 5
				}
				if err := ms.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			part, err := Lift(ms, c.r)
			if err != nil {
				t.Fatalf("d=%d r=%d extra=%d seed=%d: Lift: %v", c.d, c.r, c.extra, seed, err)
			}
			if len(part.Blocks) != c.r {
				t.Fatalf("d=%d r=%d seed=%d: %d blocks, want %d", c.d, c.r, seed, len(part.Blocks), c.r)
			}
			if err := Verify(ms, part, 1e-6); err != nil {
				t.Fatalf("d=%d r=%d extra=%d seed=%d: %v", c.d, c.r, c.extra, seed, err)
			}
		}
	}
}

// TestLiftDeterministic: identical inputs must produce bit-identical
// partitions and points — the property Exact BVC's decision step needs.
func TestLiftDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ms := geometry.NewMultiset(3)
	for i := 0; i < 13; i++ {
		v := geometry.NewVector(3)
		for j := range v {
			v[j] = rng.Float64()
		}
		if err := ms.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	first, err := Lift(ms, 4)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		again, err := Lift(ms, 4)
		if err != nil {
			t.Fatal(err)
		}
		for c := range first.Point {
			if first.Point[c] != again.Point[c] {
				t.Fatalf("rep %d: point coordinate %d = %x, want %x", rep, c, again.Point[c], first.Point[c])
			}
		}
		for b := range first.Blocks {
			if len(first.Blocks[b]) != len(again.Blocks[b]) {
				t.Fatalf("rep %d: block %d size changed", rep, b)
			}
			for i := range first.Blocks[b] {
				if first.Blocks[b][i] != again.Blocks[b][i] {
					t.Fatalf("rep %d: block %d differs", rep, b)
				}
			}
		}
	}
}

// TestLiftValidation covers the argument checks.
func TestLiftValidation(t *testing.T) {
	ms := geometry.NewMultiset(2)
	for i := 0; i < 3; i++ {
		if err := ms.Add(geometry.Vector{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Lift(ms, 1); err == nil {
		t.Error("r=1: expected error")
	}
	if _, err := Lift(ms, 2); err == nil {
		t.Error("too few points: expected error")
	}
}

// TestLiftRejectsNonFinite: a member with a NaN or ±Inf coordinate — at the
// start, in the middle or at the end of the lifted prefix — fails both entry
// points with errNonFinite before any search runs, never with a Partition.
func TestLiftRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 4, 8} {
			ms := liftBenchInput(3, 3)
			v := ms.At(at).Clone()
			v[1] = bad
			pts := ms.Points()
			pts[at] = v
			y := geometry.MustMultisetOf(pts...)
			for name, lift := range map[string]func() (*Partition, error){
				"Lift":       func() (*Partition, error) { return Lift(y, 3) },
				"LiftAffine": func() (*Partition, error) { return LiftAffine(y, 3, geometry.NewVector(3), 1) },
			} {
				part, err := lift()
				if !errors.Is(err, errNonFinite) || part != nil {
					t.Errorf("%s with %g at member %d: partition %v, error %v; want errNonFinite", name, bad, at, part, err)
				}
			}
		}
	}
}

// liftBenchInput is a deterministic uniform multiset at the Tverberg number
// for (d, r): what one Γ-point solve of the f = r−1 algorithms hands Lift.
func liftBenchInput(d, r int) *geometry.Multiset {
	rng := rand.New(rand.NewSource(int64(100*d + r)))
	ms := geometry.NewMultiset(d)
	for i := 0; i < (d+1)*(r-1)+1; i++ {
		v := geometry.NewVector(d)
		for j := range v {
			v[j] = rng.Float64()
		}
		if err := ms.Add(v); err != nil {
			panic(err)
		}
	}
	return ms
}

// BenchmarkLift times one lifted search per case; steady state allocates
// only the returned Partition.
func BenchmarkLift(b *testing.B) {
	cases := []struct {
		name string
		d, f int
	}{{"d2f2", 2, 2}, {"d3f2", 3, 2}, {"d4f2", 4, 2}, {"d2f3", 2, 3}}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ms := liftBenchInput(c.d, c.f+1)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Lift(ms, c.f+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
