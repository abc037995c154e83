package safearea

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/hull"
)

// TestPointAlwaysInEverySubsetHull is the validity-side property behind
// Lemma 1's use in the algorithms: the deterministic Γ point must lie in
// the hull of EVERY (|Y|−f)-subset — in particular in the hull of whatever
// subset happens to be the correct processes' inputs.
func TestPointAlwaysInEverySubsetHull(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(2)
		f := 1 + rng.Intn(2)
		size := (d+1)*f + 1 + rng.Intn(2)
		ms := randomMultiset(rng, size, d)
		pt, err := PointWith(ms, f, MethodAuto)
		if err != nil {
			t.Fatalf("trial %d (d=%d f=%d |Y|=%d): %v", trial, d, f, size, err)
		}
		in, err := Contains(ms, f, pt, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if !in {
			t.Fatalf("trial %d: point %v outside Γ", trial, pt)
		}
	}
}

// TestPointStableUnderClone: identical multisets (even via deep copies)
// yield bit-identical points — the cross-process determinism requirement.
func TestPointStableUnderClone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		d := 1 + rng.Intn(3)
		f := 1
		ms := randomMultiset(rng, d+2+rng.Intn(3), d)
		a, err := PointWith(ms, f, MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PointWith(ms.Clone(), f, MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("trial %d: %v vs %v", trial, a, b)
		}
	}
}

// TestGammaMonotoneInF: increasing f shrinks Γ (more subsets intersected),
// so a point of Γ(Y, f+1) is always inside Γ(Y, f).
func TestGammaMonotoneInF(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(2)
		size := 3*(d+1) + 1 // enough for f = 2 and beyond
		ms := randomMultiset(rng, size, d)
		ptHiF, err := PointWith(ms, 2, MethodAuto)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		in, err := Contains(ms, 1, ptHiF, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if !in {
			t.Fatalf("trial %d: Γ(f=2) point %v escaped Γ(f=1)", trial, ptHiF)
		}
	}
}

// TestGammaScaleAndTranslateEquivariance: Γ commutes with affine scaling
// and translation — translate/scale the inputs and the (lex-min) point
// moves with them.
func TestGammaScaleAndTranslateEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(2)
		size := (d+1)*1 + 1 + rng.Intn(2)
		ms := randomMultiset(rng, size, d)
		shift := rng.Float64()*10 - 5
		scale := 0.5 + rng.Float64()*3 // positive: preserves lex order

		moved := geometry.NewMultiset(d)
		for i := 0; i < ms.Len(); i++ {
			p := ms.At(i).Scale(scale)
			for j := range p {
				p[j] += shift
			}
			if err := moved.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		base, err := PointWith(ms, 1, MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PointWith(moved, 1, MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		want := base.Scale(scale)
		for j := range want {
			want[j] += shift
		}
		if !got.ApproxEqual(want, 1e-6) {
			t.Fatalf("trial %d: equivariance broken: got %v want %v", trial, got, want)
		}
	}
}

// TestContainsConsistentWithHullForF0: with f = 0, Γ(Y) = conv(Y), so
// Contains must agree with plain hull membership.
func TestContainsConsistentWithHullForF0(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(2)
		ms := randomMultiset(rng, 3+rng.Intn(4), d)
		z := geometry.NewVector(d)
		for j := range z {
			z[j] = rng.Float64()*12 - 6
		}
		inGamma, err := Contains(ms, 0, z, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		inHull, err := hull.Contains(ms.Points(), z, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		if inGamma != inHull {
			t.Fatalf("trial %d: Γ(f=0) membership %v, hull membership %v", trial, inGamma, inHull)
		}
	}
}
