package safearea

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// fragileCorpus enumerates the Γ-solver's formerly fragile regime: random
// candidate multisets exactly at the Lemma-1 threshold |Y| = (d+1)f+1 for
// f = 2 — the tight-bound restricted-sync cells (and the shared-subset size
// of restricted-async runs) where Γ(Y) degenerates toward a single point
// and the joint lex-min LP runs on big degenerate hull intersections.
//
// Under the dense accumulated-tableau core these instances failed at a
// ~25% rate ("hull: lexmin stage 1 infeasible after pinning", simplex
// iteration cap), so grid sweeps used to skip the region. The revised
// LU-based simplex core retires the failure mode; this corpus pins that,
// and internal/harness's TestGridCellsVerify runs the region end to end.
var fragileCorpus = []struct {
	d, f  int
	seeds int
}{
	{d: 2, f: 2, seeds: 30},
	{d: 3, f: 2, seeds: 30},
}

// fragileInstance builds the seed's random multiset at the threshold size.
func fragileInstance(t *testing.T, d, f int, seed int64) *geometry.Multiset {
	t.Helper()
	size := (d+1)*f + 1
	rng := rand.New(rand.NewSource(seed))
	ms := geometry.NewMultiset(d)
	for i := 0; i < size; i++ {
		v := geometry.NewVector(d)
		for j := range v {
			v[j] = rng.Float64()
		}
		if err := ms.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return ms
}

// TestFragileRegionLexMinLP forces the LP path (MethodLexMinLP — the
// Tverberg-lift fallback disabled) on every corpus instance and requires
// 0/30 failures per (d, f) cell, each returned point verified to lie in
// Γ(Y). This is the regression gate for the revised simplex core: the
// dense core fails a double-digit percentage of exactly these instances
// (the FuzzLPDifferential corpus in internal/verify pins that gap).
func TestFragileRegionLexMinLP(t *testing.T) {
	for _, c := range fragileCorpus {
		failures := 0
		for seed := int64(0); seed < int64(c.seeds); seed++ {
			ms := fragileInstance(t, c.d, c.f, seed)
			pt, err := PointWith(ms, c.f, MethodLexMinLP)
			if err != nil {
				t.Errorf("d=%d f=%d seed=%d: LP path failed: %v", c.d, c.f, seed, err)
				failures++
				continue
			}
			in, err := Contains(ms, c.f, pt, 1e-6)
			if err != nil {
				t.Errorf("d=%d f=%d seed=%d: verify: %v", c.d, c.f, seed, err)
				failures++
				continue
			}
			if !in {
				t.Errorf("d=%d f=%d seed=%d: point %v outside Γ(Y)", c.d, c.f, seed, pt)
				failures++
			}
		}
		if failures != 0 {
			t.Errorf("d=%d f=%d: %d/%d corpus failures (want 0)", c.d, c.f, failures, c.seeds)
		}
	}
}

// liftStallCorpus pins cluster-plus-outlier candidate sets (d = 2, f = 2)
// dumped from `bvcbench -experiment e10` under the mixed adversary, at the
// commit before the Gram-space lift: six converging correct values and one
// lure three units (or, in the normalized frame, one spread) away. On each
// the vector-space search gave up with "lifted search stalled above
// tolerance" at a lifted residual of 2–5e-7 and the ladder fell to the
// (f+1)-partition scan — the source of e10's allocation count. The first
// two are as the ladder saw them after normalization, the last two raw.
var liftStallCorpus = [][][2]uint64{
	{
		{0x0, 0x0}, {0x3f25bd04d02006d4, 0x3f245e98fe854435}, {0x3f275dcd9af84693, 0x3f2574c294735e6b},
		{0x3f33683615416c64, 0x3f31efaf7b98b9da}, {0x3f33683615416c64, 0x3f31efaf7b98b9da},
		{0x3f415c04fc5e9185, 0x3f3bdddc36de7f14}, {0x3ff0000000000000, 0x3fef3e1653946eaf},
	},
	{
		{0x0, 0x0}, {0x3ec5aac2b683806c, 0x3ec24edf78a48dfd}, {0x3ef04bc9ac6598c8, 0x3efce08bffbe36b9},
		{0x3f0c8651b607ba19, 0x3f0d99328d4c9683}, {0x3f0ce69fa6d7c8df, 0x3f117bc434104f85},
		{0x3f0d67dbbb34f484, 0x3f11e83864cd1c11}, {0x3ff0000000000000, 0x3fef3e5835e7462e},
	},
	{
		{0x3fd299f3ce8464b7, 0x3fdcc0d73819ce11}, {0x3fd299b55d97caba, 0x3fdcc08f5b6aac0b},
		{0x3fd299b476090522, 0x3fdcc090fd8a8241}, {0x3fd299b55d97caba, 0x3fdcc08f5b6aac0b},
		{0x3fd29b7f111a1421, 0x3fdcc245528ff17e}, {0x3fd29c75289574ee, 0x3fdcc36081cb6085},
		{0xc008000000000000, 0xc008000000000000},
	},
	{
		{0x3fd299f3ce8464b7, 0x3fdcc0d73819ce11}, {0x3fd299b476090522, 0x3fdcc090fd8a8241},
		{0x3fd29b61dc33b163, 0x3fdcc24ac7867f7f}, {0x3fd299b55d97caba, 0x3fdcc08f5b6aac0b},
		{0x3fd29b8d33128397, 0x3fdcc28037b87433}, {0x3fd29b7f111a1421, 0x3fdcc245528ff17e},
		{0xc008000000000000, 0xc008000000000000},
	},
}

// TestLiftStallCorpusStaysOnLiftRung: every pinned input must come back
// from the lift rung itself — liftPoint, which never reaches
// scanTverbergPoint — with a point of Γ(Y), and PointWith must return that
// same point.
func TestLiftStallCorpusStaysOnLiftRung(t *testing.T) {
	const f = 2
	for i, bits := range liftStallCorpus {
		ms := geometry.NewMultiset(2)
		for _, b := range bits {
			if err := ms.Add(geometry.Vector{math.Float64frombits(b[0]), math.Float64frombits(b[1])}); err != nil {
				t.Fatal(err)
			}
		}
		pt, ok := liftPoint(ms, f)
		if !ok {
			t.Errorf("input %d: lift rung failed; the ladder would fall to the partition scan", i)
			continue
		}
		if in, err := Contains(ms, f, pt, 1e-6); err != nil || !in {
			t.Errorf("input %d: point %v outside Γ(Y) (err %v)", i, pt, err)
		}
		full, err := PointWith(ms, f, MethodAuto)
		if err != nil || !full.Equal(pt) {
			t.Errorf("input %d: PointWith = %v, %v; lift rung gave %v", i, full, err, pt)
		}
	}
}
