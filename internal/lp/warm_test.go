package lp

import (
	"math"
	"math/rand"
	"testing"
)

// membershipProblem builds the hull-membership feasibility LP used across
// the Γ-point pipeline: convex weights over pts reproducing z within tol.
func membershipProblem(t *testing.T, p *Problem, pts [][]float64, z []float64, tol float64) {
	t.Helper()
	p.Reset()
	d := len(z)
	alphas := make([]VarID, len(pts))
	for i := range pts {
		v, err := p.AddVar("a", 0, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		alphas[i] = v
	}
	sum := make([]Term, len(pts))
	for i, a := range alphas {
		sum[i] = Term{Var: a, Coeff: 1}
	}
	if err := p.AddConstraint("sum", sum, EQ, 1); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < d; l++ {
		terms := make([]Term, 0, len(pts))
		for i, a := range alphas {
			if pts[i][l] != 0 {
				terms = append(terms, Term{Var: a, Coeff: pts[i][l]})
			}
		}
		if err := p.AddConstraint("lo", terms, GE, z[l]-tol); err != nil {
			t.Fatal(err)
		}
		if err := p.AddConstraint("hi", terms, LE, z[l]+tol); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveWithBasisMatchesCold drives a chain of sibling membership
// programs (one point swapped per step) through SolveWithBasis and checks
// every verdict against an independent cold solve. The programs are
// dense-kernel sized, so each solve runs cold and the carried basis stays
// empty.
func TestSolveWithBasisMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d, npts = 3, 6
	pts := make([][]float64, npts)
	for i := range pts {
		pts[i] = randVec(rng, d)
	}
	ws := NewWorkspace()
	var bas Basis
	warm := NewProblem()
	for step := 0; step < 60; step++ {
		// Swap one point, query membership of a nearby z.
		pts[step%npts] = randVec(rng, d)
		z := randVec(rng, d)
		if step%3 == 0 {
			// Make z an actual convex combination so both verdicts occur.
			for l := 0; l < d; l++ {
				z[l] = 0.25*pts[0][l] + 0.35*pts[1][l] + 0.4*pts[2][l]
			}
		}
		membershipProblem(t, warm, pts, z, 1e-7)
		got, err := warm.SolveWithBasis(ws, &bas)
		if err != nil {
			t.Fatalf("step %d: warm solve: %v", step, err)
		}
		if bas.Valid() {
			t.Fatalf("step %d: a dense-kernel solve kept a basis", step)
		}

		cold := NewProblem()
		membershipProblem(t, cold, pts, z, 1e-7)
		want, err := cold.Solve()
		if err != nil {
			t.Fatalf("step %d: cold solve: %v", step, err)
		}
		if (got.Status == Optimal) != (want.Status == Optimal) {
			t.Fatalf("step %d: warm status %v, cold status %v", step, got.Status, want.Status)
		}
	}
}

// TestSolveWithBasisShapeMismatch checks that a revised-kernel basis
// carried to a differently shaped program falls back to a cold solve
// rather than failing.
func TestSolveWithBasisShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	var bas Basis
	for i, rows := range []int{smallCoreRows + 1, smallCoreRows + 2} {
		p := sizedLP(rng, rows)
		want, werr := p.SolveDense(NewWorkspace())
		got, err := p.SolveWithBasis(ws, &bas)
		requireAgree(t, itoa(rows)+" rows", got, want, err, werr)
		if i == 0 && !bas.Valid() {
			t.Fatal("the first program captured no basis to carry")
		}
	}
}

// TestHotStagedLexMin replays the lex-min pinning chain through
// SolveHot/AppendLE/Resolve and checks each stage's optimum against a cold
// solve of the cumulative program.
func TestHotStagedLexMin(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		const d = 3
		// A random feasible region: convex weights over a handful of points,
		// z free variables tied to the combination (an intersection-problem
		// miniature).
		build := func() (*Problem, []VarID) {
			p := NewProblem()
			zv := make([]VarID, d)
			for l := 0; l < d; l++ {
				v, _ := p.AddVar("z", math.Inf(-1), math.Inf(1))
				zv[l] = v
			}
			pts := make([][]float64, 5)
			r2 := rand.New(rand.NewSource(int64(trial)))
			al := make([]VarID, len(pts))
			for i := range pts {
				pts[i] = randVec(r2, d)
				v, _ := p.AddVar("a", 0, math.Inf(1))
				al[i] = v
			}
			sum := make([]Term, len(pts))
			for i, a := range al {
				sum[i] = Term{Var: a, Coeff: 1}
			}
			if err := p.AddConstraint("sum", sum, EQ, 1); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < d; l++ {
				terms := make([]Term, 0, len(pts)+1)
				for i, a := range al {
					terms = append(terms, Term{Var: a, Coeff: pts[i][l]})
				}
				terms = append(terms, Term{Var: zv[l], Coeff: -1})
				if err := p.AddConstraint("eq", terms, EQ, 0); err != nil {
					t.Fatal(err)
				}
			}
			return p, zv
		}

		// Hot chain.
		const pinSlack = 1e-6
		hotProb, zv := build()
		if err := hotProb.SetObjective(Minimize, []Term{{Var: zv[0], Coeff: 1}}); err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		sol, hot, err := hotProb.SolveHot(ws)
		if err != nil || sol.Status != Optimal || hot == nil {
			t.Fatalf("trial %d: stage 0: %+v %v", trial, sol, err)
		}
		hotVals := []float64{sol.Values[zv[0]]}
		for l := 1; l < d; l++ {
			if err := hot.AppendLE([]Term{{Var: zv[l-1], Coeff: 1}}, hotVals[l-1]+pinSlack); err != nil {
				t.Fatalf("trial %d: append stage %d: %v", trial, l, err)
			}
			if err := hotProb.SetObjective(Minimize, []Term{{Var: zv[l], Coeff: 1}}); err != nil {
				t.Fatal(err)
			}
			sol, err = hot.Resolve()
			if err != nil || sol.Status != Optimal {
				t.Fatalf("trial %d: resolve stage %d: %+v %v", trial, l, sol, err)
			}
			hotVals = append(hotVals, sol.Values[zv[l]])
		}

		// Cold chain (the pre-warm-start implementation shape).
		coldProb, zvc := build()
		coldVals := make([]float64, 0, d)
		for l := 0; l < d; l++ {
			if err := coldProb.SetObjective(Minimize, []Term{{Var: zvc[l], Coeff: 1}}); err != nil {
				t.Fatal(err)
			}
			csol, err := coldProb.Solve()
			if err != nil || csol.Status != Optimal {
				t.Fatalf("trial %d: cold stage %d: %+v %v", trial, l, csol, err)
			}
			coldVals = append(coldVals, csol.Values[zvc[l]])
			if l < d-1 {
				if err := coldProb.AddConstraint("pin", []Term{{Var: zvc[l], Coeff: 1}}, LE, csol.Values[zvc[l]]+pinSlack); err != nil {
					t.Fatal(err)
				}
			}
		}

		// The lex-min objective VALUES must agree to within the pin slack
		// scale at every stage (vertices on degenerate faces may differ).
		for l := 0; l < d; l++ {
			if math.Abs(hotVals[l]-coldVals[l]) > 1e-4 {
				t.Fatalf("trial %d: stage %d objective: hot %v cold %v", trial, l, hotVals[l], coldVals[l])
			}
		}
	}
}

// TestHotAppendInfeasible checks the violated-row signal.
func TestHotAppendInfeasible(t *testing.T) {
	p := NewProblem()
	x, _ := p.AddVar("x", 0, 10)
	if err := p.AddConstraint("c", []Term{{Var: x, Coeff: 1}}, GE, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.SetObjective(Minimize, []Term{{Var: x, Coeff: 1}}); err != nil {
		t.Fatal(err)
	}
	sol, hot, err := p.SolveHot(NewWorkspace())
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%+v %v", sol, err)
	}
	if err := hot.AppendLE([]Term{{Var: x, Coeff: 1}}, 2); err == nil {
		t.Fatal("want ErrHotInfeasible for x ≤ 2 at x = 4")
	}
	// The tableau must remain usable: re-minimize unchanged.
	sol2, err := hot.Resolve()
	if err != nil || sol2.Status != Optimal || math.Abs(sol2.Values[x]-4) > 1e-7 {
		t.Fatalf("after refused append: %+v %v", sol2, err)
	}
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}
