package safearea

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/tverberg"
)

// TestCertTolIsHalfVerifyTol pins the relation the lift rung's acceptance
// rests on: the certificate threshold leaves the LP verification's
// tolerance a factor of two of room.
func TestCertTolIsHalfVerifyTol(t *testing.T) {
	if tverberg.CertTol > liftVerifyTol/2 {
		t.Fatalf("tverberg.CertTol = %g exceeds liftVerifyTol/2 = %g", tverberg.CertTol, liftVerifyTol/2)
	}
}

// certShapes are the input families of the certificate soundness sweep.
var certShapes = []string{"random", "duplicated", "collinear", "cluster+outlier", "scaled"}

// certInput draws one candidate multiset of the given family: (d+1)f+1
// members plus up to two beyond the lifted prefix.
func certInput(rng *rand.Rand, d, f int, shape string) *geometry.Multiset {
	n := (d+1)*f + 1 + rng.Intn(3)
	pts := make([]geometry.Vector, n)
	uniform := func() geometry.Vector {
		v := geometry.NewVector(d)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	for i := range pts {
		pts[i] = uniform()
	}
	switch shape {
	case "duplicated":
		for i := range pts {
			if rng.Intn(3) == 0 {
				pts[i] = pts[rng.Intn(n)].Clone()
			}
		}
	case "collinear":
		base, dir := uniform(), uniform()
		for i := range pts {
			s := rng.Float64()*2 - 1
			for j := range pts[i] {
				pts[i][j] = base[j] + s*dir[j]
			}
		}
	case "cluster+outlier":
		// The shape of e10's stalls: all but one or two members within
		// 1e-4 of the distance to the outliers.
		centre := uniform()
		dist := 1 + 2*rng.Float64()
		outliers := 1 + rng.Intn(f)
		for i := range pts {
			for j := range pts[i] {
				if i < n-outliers {
					pts[i][j] = centre[j] + 1e-4*dist*(pts[i][j]-0.5)
				} else {
					pts[i][j] = centre[j] - dist*(0.5+pts[i][j])
				}
			}
		}
		rng.Shuffle(n, func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
	case "scaled":
		scale := math.Pow(10, float64(rng.Intn(19)-9))
		for i := range pts {
			for j := range pts[i] {
				pts[i][j] = scale * (pts[i][j] - 0.5)
			}
		}
	}
	return geometry.MustMultisetOf(pts...)
}

// TestLiftCertificateSound is the soundness sweep of the lift rung's
// LP-free acceptance: over random, duplicated, collinear,
// cluster-plus-outlier and spread-1e-9…1e9 inputs for d ∈ {2,3,4},
// f ∈ {2,3}, every partition the certificate accepts (Residual ≤
// tverberg.CertTol in the rung's frame) must also pass the f+1 membership
// LPs of tverberg.Verify at liftVerifyTol — the check the certificate
// replaces — and a partition whose point is moved, whose weights are
// shifted or negated, or whose block is emptied must be rejected.
func TestLiftCertificateSound(t *testing.T) {
	trials := 100_000
	if testing.Short() {
		trials = 10_000
	}
	rng := rand.New(rand.NewSource(16))
	accepted := map[string]int{}
	drawn := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		d, f := 2+trial%3, 2+(trial/3)%2
		shape := certShapes[(trial/6)%len(certShapes)]
		y := certInput(rng, d, f, shape)
		drawn[shape]++
		lo, scale := liftFrame(y, f)
		part, err := tverberg.LiftAffine(y, f+1, lo, 1/scale)
		if err != nil {
			continue // the rung fails; nothing is accepted
		}
		ny := normalizeMultiset(y, lo, scale)
		if r := tverberg.Residual(ny, part); r != part.Residual {
			t.Fatalf("trial %d (%s d=%d f=%d): Residual recomputed %g, Lift reported %g", trial, shape, d, f, r, part.Residual)
		}
		if part.Residual > tverberg.CertTol {
			continue // certificate miss: the LPs decide, as before
		}
		accepted[shape]++
		if err := tverberg.Verify(ny, part, liftVerifyTol); err != nil {
			t.Fatalf("trial %d (%s d=%d f=%d): certificate accepted (residual %g) what Verify rejects: %v\nY = %v", trial, shape, d, f, part.Residual, err, y)
		}
		if trial%8 != 0 {
			continue
		}
		for name, bad := range brokenCertificates(ny, part) {
			if r := tverberg.Residual(ny, bad); r <= tverberg.CertTol {
				t.Fatalf("trial %d (%s d=%d f=%d): %s still certified (residual %g)", trial, shape, d, f, name, r)
			}
		}
	}
	for _, shape := range certShapes {
		t.Logf("%-16s certified %d of %d", shape, accepted[shape], drawn[shape])
		if accepted[shape]*2 < drawn[shape] {
			t.Errorf("%s: only %d of %d inputs certified; the sweep is close to vacuous", shape, accepted[shape], drawn[shape])
		}
	}
}

// brokenCertificates returns copies of a certified partition that no longer
// prove anything: the point moved off the block means, weight shifted
// between two distinct members of a block (when that moves the block's
// mean by well over the tolerance), a weight negated, a block emptied.
func brokenCertificates(y *geometry.Multiset, part *tverberg.Partition) map[string]*tverberg.Partition {
	clone := func() *tverberg.Partition {
		p := &tverberg.Partition{Point: part.Point.Clone(), Weights: append([]float64(nil), part.Weights...)}
		for _, blk := range part.Blocks {
			p.Blocks = append(p.Blocks, append([]int(nil), blk...))
		}
		return p
	}
	out := map[string]*tverberg.Partition{}

	moved := clone()
	moved.Point[0] += 4 * tverberg.CertTol
	out["moved point"] = moved

	negated := clone()
	for i, w := range negated.Weights {
		if w > 0 {
			negated.Weights[i] = -w
			break
		}
	}
	out["negated weight"] = negated

	emptied := clone()
	emptied.Blocks[1] = append(emptied.Blocks[1], emptied.Blocks[0]...)
	emptied.Blocks[0] = nil
	out["emptied block"] = emptied

	for _, blk := range part.Blocks {
		var mass float64
		for _, idx := range blk {
			mass += part.Weights[idx]
		}
		for _, a := range blk {
			for _, b := range blk {
				wa, wb := part.Weights[a], part.Weights[b]
				if a == b || wb <= 0 || wa <= 0 {
					continue
				}
				// Moving half of b's weight onto a moves the mean by
				// (w_b/2)·(y_a − y_b)/mass.
				var shift float64
				for c := range y.At(a) {
					shift = math.Max(shift, math.Abs(wb/2*(y.At(a)[c]-y.At(b)[c])/mass))
				}
				if shift > 4*tverberg.CertTol {
					shifted := clone()
					shifted.Weights[a] += wb / 2
					shifted.Weights[b] -= wb / 2
					out["shifted weights"] = shifted
					return out
				}
			}
		}
	}
	return out
}
