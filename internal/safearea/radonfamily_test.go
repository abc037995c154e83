package safearea

import (
	"math/rand"
	"testing"

	"repro/internal/combin"
	"repro/internal/geometry"
)

func familyPool(rng *rand.Rand, n, d int) []geometry.Vector {
	out := make([]geometry.Vector, n)
	for i := range out {
		v := geometry.NewVector(d)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

// familyReference computes the family points the slow way: one PointWith
// per lexicographic subset.
func familyReference(t *testing.T, vals []geometry.Vector, f, k int) []geometry.Vector {
	t.Helper()
	var pts []geometry.Vector
	err := combin.Combinations(len(vals), k, func(idx []int) bool {
		ms := geometry.NewMultiset(vals[0].Dim())
		for _, j := range idx {
			if err := ms.Add(vals[j]); err != nil {
				t.Fatal(err)
			}
		}
		pt, err := PointWith(ms, f, MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestRadonFamilyMatchesReference: a fresh family must hold bit-identical
// points (and mean) to the independent subset walk.
func TestRadonFamilyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ n, d int }{{7, 2}, {8, 3}, {9, 4}} {
		k := c.d + 2
		vals := familyPool(rng, c.n, c.d)
		fam, solved, err := NewRadonFamily(vals, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		want := familyReference(t, vals, 1, k)
		if solved != len(want) {
			t.Fatalf("n=%d d=%d: solved %d, want %d", c.n, c.d, solved, len(want))
		}
		for r := range want {
			for l := range want[r] {
				if fam.pts[r][l] != want[r][l] {
					t.Fatalf("n=%d d=%d rank %d: %v != %v", c.n, c.d, r, fam.pts[r], want[r])
				}
			}
		}
		mean, size, err := fam.MeanPoint()
		if err != nil || size != len(want) {
			t.Fatalf("mean: size=%d err=%v", size, err)
		}
		ref, err := geometry.Mean(want)
		if err != nil {
			t.Fatal(err)
		}
		for l := range ref {
			if mean[l] != ref[l] {
				t.Fatalf("mean mismatch: %v != %v", mean, ref)
			}
		}
	}
}

// TestRadonFamilyDeltaMatchesFresh: a delta-built family must be
// bit-identical to a from-scratch build of the same pool while reusing
// every subset that avoids the changed slot. The delta shape mirrors the
// restricted-async round structure: sibling B sets are "everyone except
// one straggler", i.e. single-member deltas of each other.
func TestRadonFamilyDeltaMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const d, k = 3, 5
	pool := familyPool(rng, 9, d) // process universe
	// B_a = pool without slot 3; B_b = pool without slot 6.
	without := func(skip int) []geometry.Vector {
		out := make([]geometry.Vector, 0, len(pool)-1)
		for i, v := range pool {
			if i != skip {
				out = append(out, v)
			}
		}
		return out
	}
	ba, bb := without(3), without(6)
	famA, _, err := NewRadonFamily(ba, 1, k)
	if err != nil {
		t.Fatal(err)
	}
	// B_b = B_a with member at (B_a slot 5 = pool slot 6) removed and the
	// pool-slot-3 value inserted at B_b slot 3.
	famB, reused, solved, err := NewRadonFamilyFrom(famA, bb, 3, 5, 1, k)
	if err != nil {
		t.Fatal(err)
	}
	fresh, total, err := NewRadonFamily(bb, 1, k)
	if err != nil {
		t.Fatal(err)
	}
	if reused+solved != total {
		t.Fatalf("reused %d + solved %d != total %d", reused, solved, total)
	}
	wantReused := int(combin.Binomial(len(bb)-1, k))
	if reused != wantReused {
		t.Fatalf("reused %d, want C(%d, %d) = %d", reused, len(bb)-1, k, wantReused)
	}
	for r := range fresh.pts {
		for l := range fresh.pts[r] {
			if famB.pts[r][l] != fresh.pts[r][l] {
				t.Fatalf("rank %d: delta %v != fresh %v", r, famB.pts[r], fresh.pts[r])
			}
		}
	}
	ma, _, _ := famB.MeanPoint()
	mb, _, _ := fresh.MeanPoint()
	for l := range ma {
		if ma[l] != mb[l] {
			t.Fatalf("mean: delta %v != fresh %v", ma, mb)
		}
	}
	// Mismatched family parameters (here f) fall back to a fresh build (no
	// reuse).
	fam2, reused2, _, err := NewRadonFamilyFrom(famA, bb, 3, 5, 0, k)
	if err != nil || fam2 == nil || reused2 != 0 {
		t.Fatalf("parameter-mismatch fallback: fam=%v reused=%d err=%v", fam2, reused2, err)
	}
}
