package hull

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lp"
)

// jointGammaGroups returns the hull groups of Γ(Y) for n random points in
// dimension d and fault bound f: every (n−f)-subset of Y. At n ≥ (d+1)f+1
// Lemma 1 makes their intersection non-empty.
func jointGammaGroups(rng *rand.Rand, n, d, f int) [][]geometry.Vector {
	pts := make([]geometry.Vector, n)
	for i := range pts {
		pts[i] = geometry.NewVector(d)
		for l := range pts[i] {
			pts[i][l] = rng.Float64()
		}
	}
	var groups [][]geometry.Vector
	var rec func(start int, g []geometry.Vector)
	rec = func(start int, g []geometry.Vector) {
		if len(g) == n-f {
			groups = append(groups, append([]geometry.Vector(nil), g...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(g, pts[i]))
		}
	}
	rec(0, nil)
	return groups
}

// TestLexMinColdMatchesWarm: the cold fallback of the lex-min chain,
// lexMinCold, finishes a chain the warm path started on the same point as
// the warm path. On random joint-Γ programs it takes over from stage 1,
// with stage 0's pin in bounds, and its point must match
// LexMinCommonPoint's within 2·pinSlack per coordinate — the two chains
// pin each stage with pinSlack of play.
func TestLexMinColdMatchesWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := range 24 {
		d, f := 2+trial%2, 1+trial/2%2
		n := (d+1)*f + 1 + rng.Intn(2)
		groups := jointGammaGroups(rng, n, d, f)
		want, ok, err := LexMinCommonPoint(groups)
		if err != nil || !ok {
			t.Fatalf("trial %d (n=%d d=%d f=%d): LexMinCommonPoint ok=%v err=%v", trial, n, d, f, ok, err)
		}

		prob, zvars, err := intersectionProblem(groups)
		if err != nil {
			t.Fatal(err)
		}
		if err := prob.SetObjective(lp.Minimize, []lp.Term{{Var: zvars[0], Coeff: 1}}); err != nil {
			t.Fatal(err)
		}
		stage0, err := prob.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if stage0.Status != lp.Optimal {
			t.Fatalf("trial %d: stage 0 status %v", trial, stage0.Status)
		}
		bounds := []float64{stage0.Values[zvars[0]] + pinSlack}
		got, ok, err := lexMinCold(prob, zvars, stage0, 1, bounds)
		if err != nil || !ok {
			t.Fatalf("trial %d (n=%d d=%d f=%d): lexMinCold ok=%v err=%v", trial, n, d, f, ok, err)
		}
		for l := range want {
			if math.Abs(got[l]-want[l]) > 2*pinSlack {
				t.Fatalf("trial %d (n=%d d=%d f=%d): cold chain %v, warm chain %v", trial, n, d, f, got, want)
			}
		}
	}
}
