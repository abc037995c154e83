package safearea

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/tverberg"
)

func vec(xs ...float64) geometry.Vector { return geometry.Vector(xs) }

// randomMultiset builds n random points in [-5,5]^d.
func randomMultiset(rng *rand.Rand, n, d int) *geometry.Multiset {
	ms := geometry.NewMultiset(d)
	for i := 0; i < n; i++ {
		p := geometry.NewVector(d)
		for j := range p {
			p[j] = rng.Float64()*10 - 5
		}
		if err := ms.Add(p); err != nil {
			panic(err)
		}
	}
	return ms
}

func TestInterval1D(t *testing.T) {
	// Sorted members: 1 2 3 4 5; f=1 → Γ = [2, 4].
	ms := geometry.MustMultisetOf(vec(3), vec(1), vec(5), vec(2), vec(4))
	lo, hi, err := Interval(ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 2 || hi != 4 {
		t.Errorf("Γ = [%g,%g], want [2,4]", lo, hi)
	}
	// f=2 → Γ = [3,3].
	lo, hi, err = Interval(ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 || hi != 3 {
		t.Errorf("Γ = [%g,%g], want [3,3]", lo, hi)
	}
}

func TestIntervalEmptyWhenTooFew(t *testing.T) {
	// |Y| = 2f: Γ must be empty (lo > hi).
	ms := geometry.MustMultisetOf(vec(0), vec(1))
	lo, hi, err := Interval(ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo <= hi {
		t.Errorf("Γ = [%g,%g], want empty", lo, hi)
	}
	empty, err := IsEmpty(ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Error("IsEmpty should report empty")
	}
}

func TestIntervalRequires1D(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(0, 0))
	if _, _, err := Interval(ms, 0); err == nil {
		t.Error("d=2: expected error")
	}
}

func TestValidateErrors(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(0), vec(1))
	if _, err := PointWith(nil, 0, MethodAuto); err == nil {
		t.Error("nil multiset: expected error")
	}
	if _, err := PointWith(ms, -1, MethodAuto); err == nil {
		t.Error("negative f: expected error")
	}
	if _, err := PointWith(ms, 2, MethodAuto); err == nil {
		t.Error("f = |Y|: expected error")
	}
}

// TestLemma1NonEmptyAtThreshold is experiment E3's core assertion: random
// multisets with |Y| = (d+1)f+1 always have non-empty Γ(Y) (Lemma 1).
func TestLemma1NonEmptyAtThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(3)
		f := 1 + rng.Intn(2)
		n := (d+1)*f + 1
		ms := randomMultiset(rng, n, d)
		empty, err := IsEmpty(ms, f)
		if err != nil {
			t.Fatalf("trial %d (d=%d f=%d): %v", trial, d, f, err)
		}
		if empty {
			t.Fatalf("trial %d (d=%d f=%d): Lemma 1 violated — Γ empty at threshold", trial, d, f)
		}
	}
}

// TestGammaEmptyBelowThreshold reproduces the Theorem 1 counterexample: the
// standard basis plus origin (|Y| = d+1, f = 1) has empty Γ.
func TestGammaEmptyBelowThreshold(t *testing.T) {
	for d := 1; d <= 4; d++ {
		ms := geometry.NewMultiset(d)
		for i := 0; i < d; i++ {
			e := geometry.NewVector(d)
			e[i] = 1
			if err := ms.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := ms.Add(geometry.NewVector(d)); err != nil {
			t.Fatal(err)
		}
		empty, err := IsEmpty(ms, 1)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !empty {
			t.Errorf("d=%d: basis construction should have empty Γ (Theorem 1)", d)
		}
		if _, err := PointWith(ms, 1, MethodLexMinLP); !errors.Is(err, ErrEmpty) {
			t.Errorf("d=%d: PointWith should return ErrEmpty, got %v", d, err)
		}
	}
}

func TestGammaF0IsHull(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(1, 2), vec(0, 0), vec(3, 1))
	empty, err := IsEmpty(ms, 0)
	if err != nil || empty {
		t.Fatalf("f=0 Γ=H(Y) must be non-empty: empty=%v err=%v", empty, err)
	}
	pt, err := PointWith(ms, 0, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	// Lex-min member is (0,0).
	if !pt.ApproxEqual(vec(0, 0), 1e-9) {
		t.Errorf("f=0 point = %v, want (0,0)", pt)
	}
	in, err := Contains(ms, 0, pt, 0)
	if err != nil || !in {
		t.Errorf("point must be in Γ: in=%v err=%v", in, err)
	}
}

// TestPointMethodsAgreeOnMembership: every method must return a point that
// membership-tests into Γ(Y), and so must the Tverberg point an exhaustive
// partition search finds, the ladder's independent oracle. The fixed case
// is the unit square with its centre.
func TestPointMethodsAgreeOnMembership(t *testing.T) {
	inside := func(what string, ms *geometry.Multiset, f int, pt geometry.Vector) {
		t.Helper()
		in, err := Contains(ms, f, pt, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if !in {
			t.Fatalf("%s: point %v not in Γ", what, pt)
		}
	}
	check := func(trial int, ms *geometry.Multiset, f int) {
		t.Helper()
		for _, m := range []Method{MethodAuto, MethodLexMinLP} {
			pt, err := PointWith(ms, f, m)
			if err != nil {
				t.Fatalf("trial %d method %v: %v", trial, m, err)
			}
			inside(fmt.Sprintf("trial %d method %v", trial, m), ms, f, pt)
		}
		part, ok, err := tverberg.Search(ms, f+1)
		if err != nil || !ok {
			t.Fatalf("trial %d: exhaustive search found no partition (err %v)", trial, err)
		}
		inside(fmt.Sprintf("trial %d exhaustive search", trial), ms, f, part.Point)
	}
	check(-1, geometry.MustMultisetOf(vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1), vec(0.5, 0.5)), 1)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		d := 1 + rng.Intn(2)
		f := 1
		n := (d+1)*f + 1 + rng.Intn(2)
		check(trial, randomMultiset(rng, n, d), f)
	}
}

func TestPointRadonFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(3)
		n := d + 2 + rng.Intn(3)
		ms := randomMultiset(rng, n, d)
		pt, err := PointWith(ms, 1, MethodRadon)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		in, err := Contains(ms, 1, pt, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if !in {
			t.Fatalf("trial %d: Radon point %v not in Γ(Y) (d=%d n=%d)", trial, pt, d, n)
		}
	}
}

func TestPointRadonRequiresF1(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1), vec(2, 2), vec(3, 0), vec(0, 3))
	if _, err := PointWith(ms, 2, MethodRadon); err == nil {
		t.Error("f=2 with Radon: expected error")
	}
}

func TestPointRadonRequiresEnoughPoints(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(0, 0), vec(1, 0), vec(0, 1))
	if _, err := PointWith(ms, 1, MethodRadon); err == nil {
		t.Error("|Y| < d+2 with Radon: expected error")
	}
}

func TestPointUnknownMethod(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(0), vec(1), vec(2))
	if _, err := PointWith(ms, 1, Method(99)); err == nil {
		t.Error("unknown method: expected error")
	}
}

func TestPointDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := randomMultiset(rng, 7, 2)
	a, err := PointWith(ms, 2, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PointWith(ms.Clone(), 2, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("non-deterministic point: %v vs %v", a, b)
	}
}

func TestPoint1DClosedForm(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(5), vec(1), vec(3), vec(2), vec(9))
	pt, err := PointWith(ms, 1, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 2 {
		t.Errorf("d=1 point = %v, want y₍f+1₎ = 2", pt)
	}
}

// TestGammaPointInsideEveryHullExplicit cross-checks Γ membership by
// explicitly verifying the defining property on a concrete instance.
func TestGammaPointInsideEveryHullExplicit(t *testing.T) {
	// 5 points in R², f = 1: point must be inside all five 4-point hulls.
	ms := geometry.MustMultisetOf(vec(0, 0), vec(4, 0), vec(0, 4), vec(4, 4), vec(2, 2))
	pt, err := PointWith(ms, 1, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Contains(ms, 1, pt, 1e-7)
	if err != nil || !in {
		t.Fatalf("in=%v err=%v", in, err)
	}
	// (2,2) is a member of every 4-subset's hull interior here; but e.g.
	// (0,0) is not in the hull of {(4,0),(0,4),(4,4),(2,2)}.
	in, err = Contains(ms, 1, vec(0, 0), 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if in {
		t.Error("(0,0) must not be in Γ")
	}
}

func TestContainsDimMismatch(t *testing.T) {
	ms := geometry.MustMultisetOf(vec(0, 0), vec(1, 1))
	if _, err := Contains(ms, 0, vec(1), 0); err == nil {
		t.Error("dim mismatch: expected error")
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []Method{MethodAuto, MethodLexMinLP, MethodRadon, MethodTverbergLift} {
		if m.String() == "" {
			t.Errorf("method %d renders empty", m)
		}
	}
	if Method(42).String() == "" {
		t.Error("unknown method renders empty")
	}
}

// TestProbabilitySimplexStaysInside: inputs on the probability simplex must
// yield a Γ point on the simplex (the paper's motivating invariant).
func TestProbabilitySimplexStaysInside(t *testing.T) {
	ms := geometry.MustMultisetOf(
		vec(2.0/3, 1.0/6, 1.0/6),
		vec(1.0/6, 2.0/3, 1.0/6),
		vec(1.0/6, 1.0/6, 2.0/3),
		vec(1.0/3, 1.0/3, 1.0/3),
		vec(0.5, 0.25, 0.25),
		vec(0.25, 0.5, 0.25),
	)
	pt, err := PointWith(ms, 1, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range pt {
		if x < -1e-7 {
			t.Errorf("negative coordinate %g", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("coordinates sum to %g, want 1 (point must stay on simplex)", sum)
	}
}

// TestContainsMatchesLex holds Contains to its definition, walked
// exhaustively in lexicographic order: z is inside iff every
// (|Y|−f)-subset hull contains it, and on an LP error Contains returns the
// error of the lowest-rank subset — for a NaN probe, which no LP can
// place, the first subset's.
func TestContainsMatchesLex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		d := 1 + rng.Intn(3)
		f := 1 + rng.Intn(2)
		n := (d+1)*f + 1 + rng.Intn(3)
		ms := geometry.NewMultiset(d)
		for i := 0; i < n; i++ {
			v := geometry.NewVector(d)
			for l := range v {
				v[l] = rng.Float64()
			}
			if err := ms.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		// Probe points: one likely inside (a Γ point when it exists), one
		// certainly outside the input box, and one no LP can place.
		var probes []geometry.Vector
		if pt, err := PointWith(ms, f, MethodAuto); err == nil {
			probes = append(probes, pt)
		}
		out := geometry.NewVector(d)
		for l := range out {
			out[l] = 5 + rng.Float64()
		}
		nan := geometry.NewVector(d)
		nan[0] = math.NaN()
		probes = append(probes, out, nan)
		for _, z := range probes {
			want, first := true, true
			var werr error
			pts := make([]geometry.Vector, n-f)
			if err := combin.Combinations(n, n-f, func(idx []int) bool {
				for i, j := range idx {
					pts[i] = ms.At(j)
				}
				in, err := hull.Contains(pts, z, 0)
				if first {
					werr, first = err, false
				}
				want = want && in && err == nil
				return true
			}); err != nil {
				t.Fatal(err)
			}
			got, gerr := Contains(ms, f, z, 0)
			if math.IsNaN(z[0]) {
				if gerr == nil || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("trial %d: NaN probe err=%v, want the first subset's %v", trial, gerr, werr)
				}
				continue
			}
			if gerr != nil {
				t.Fatalf("trial %d z=%v: %v", trial, z, gerr)
			}
			if got != want {
				t.Fatalf("trial %d: Contains=%v, every subset hull=%v for z=%v", trial, got, want, z)
			}
		}
	}
}
