package lp

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the differential suite between the two simplex cores: every
// random program is solved under both CoreDense and CoreRevised and the
// verdicts must agree (objectives within tolerance; solutions feasible).
// CI additionally runs the whole package suite under REPRO_LP_CORE=dense,
// so the dense core keeps passing the direct property tests too.

// withCore runs fn under the given core selection.
func withCore(c Core, fn func()) {
	prev := SetCore(c)
	defer SetCore(prev)
	fn()
}

// randomLP builds a random bounded-box LP with a mix of LE/GE/EQ rows. It
// is feasible by construction: the rows are anchored at a random interior
// point xfeas of the box.
func randomLP(rng *rand.Rand) (*Problem, []VarID, []float64) {
	nvars := 2 + rng.Intn(4)
	nrows := 1 + rng.Intn(5)
	p := NewProblem()
	vars := make([]VarID, nvars)
	xfeas := make([]float64, nvars)
	for i := range vars {
		lo, hi := 0.0, 4.0
		switch rng.Intn(4) {
		case 1:
			lo, hi = -2, 2
		case 2:
			lo, hi = -3, math.Inf(1)
		case 3:
			lo, hi = math.Inf(-1), 3
		}
		v, err := p.AddVar("x", lo, hi)
		if err != nil {
			panic(err)
		}
		vars[i] = v
		base := lo
		if math.IsInf(lo, -1) {
			base = hi - 2
		}
		span := 2.0
		if !math.IsInf(hi, 1) && !math.IsInf(lo, -1) {
			span = hi - lo
		}
		xfeas[i] = base + rng.Float64()*span
	}
	for r := 0; r < nrows; r++ {
		terms := make([]Term, 0, nvars)
		var at float64
		for i, v := range vars {
			a := rng.Float64()*4 - 2
			if rng.Intn(3) == 0 {
				a = 0
			}
			if a != 0 {
				terms = append(terms, Term{Var: v, Coeff: a})
				at += a * xfeas[i]
			}
		}
		var rel Rel
		rhs := at
		switch rng.Intn(3) {
		case 0:
			rel = LE
			rhs += rng.Float64()
		case 1:
			rel = GE
			rhs -= rng.Float64()
		default:
			rel = EQ
		}
		if err := p.AddConstraint("r", terms, rel, rhs); err != nil {
			panic(err)
		}
	}
	costs := make([]Term, nvars)
	for i, v := range vars {
		costs[i] = Term{Var: v, Coeff: rng.Float64()*2 - 1}
	}
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	if err := p.SetObjective(sense, costs); err != nil {
		panic(err)
	}
	return p, vars, xfeas
}

// checkFeasible verifies the solution against every constraint and bound.
func checkFeasible(t *testing.T, trial int, core Core, p *Problem, sol *Solution) {
	t.Helper()
	for i := range p.varLo {
		v := sol.Values[i]
		if v < p.varLo[i]-1e-6 || v > p.varHi[i]+1e-6 {
			t.Fatalf("trial %d core %v: x%d = %g violates bounds [%g, %g]",
				trial, core, i, v, p.varLo[i], p.varHi[i])
		}
	}
	for r := range p.rows {
		var lhs float64
		for _, tm := range p.rows[r] {
			lhs += tm.Coeff * sol.Values[tm.Var]
		}
		rhs := p.rhs[r]
		switch p.rels[r] {
		case LE:
			if lhs > rhs+1e-6 {
				t.Fatalf("trial %d core %v: row %d %g > %g", trial, core, r, lhs, rhs)
			}
		case GE:
			if lhs < rhs-1e-6 {
				t.Fatalf("trial %d core %v: row %d %g < %g", trial, core, r, lhs, rhs)
			}
		case EQ:
			if math.Abs(lhs-rhs) > 1e-6 {
				t.Fatalf("trial %d core %v: row %d %g != %g", trial, core, r, lhs, rhs)
			}
		}
	}
}

// TestCoresAgreeOnRandomLPs: both cores must produce the same status and —
// when Optimal — the same objective within tolerance, each with a feasible
// solution. (The optimal VERTICES may differ on degenerate faces; the
// objective value and verdict are the invariants.)
func TestCoresAgreeOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 300; trial++ {
		p, _, _ := randomLP(rng)
		var dsol, rsol *Solution
		var derr, rerr error
		withCore(CoreDense, func() { dsol, derr = p.Solve() })
		withCore(CoreRevised, func() { rsol, rerr = p.Solve() })
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("trial %d: error mismatch dense=%v revised=%v", trial, derr, rerr)
		}
		if derr != nil {
			continue
		}
		if dsol.Status != rsol.Status {
			t.Fatalf("trial %d: status dense=%v revised=%v", trial, dsol.Status, rsol.Status)
		}
		if dsol.Status != Optimal {
			continue
		}
		if math.Abs(dsol.Objective-rsol.Objective) > 1e-5 {
			t.Fatalf("trial %d: objective dense=%g revised=%g", trial, dsol.Objective, rsol.Objective)
		}
		checkFeasible(t, trial, CoreDense, p, dsol)
		checkFeasible(t, trial, CoreRevised, p, rsol)
	}
}

// TestCoresAgreeOnInfeasible: infeasibility verdicts must agree.
func TestCoresAgreeOnInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		p := NewProblem()
		x, _ := p.AddVar("x", 0, 10)
		y, _ := p.AddVar("y", 0, 10)
		gap := rng.Float64() * 5
		_ = p.AddConstraint("a", []Term{{x, 1}, {y, 1}}, GE, 15+gap)
		_ = p.AddConstraint("b", []Term{{x, 1}, {y, 1}}, LE, 15-gap-0.1)
		var ds, rs Status
		withCore(CoreDense, func() { s, err := p.Solve(); mustNoErr(t, err); ds = s.Status })
		withCore(CoreRevised, func() { s, err := p.Solve(); mustNoErr(t, err); rs = s.Status })
		if ds != rs || rs != Infeasible {
			t.Fatalf("trial %d: dense=%v revised=%v want Infeasible", trial, ds, rs)
		}
	}
}

// TestCoresAgreeOnUnbounded: unboundedness verdicts must agree.
func TestCoresAgreeOnUnbounded(t *testing.T) {
	p := NewProblem()
	x, _ := p.AddVar("x", 0, math.Inf(1))
	y, _ := p.AddVar("y", 0, math.Inf(1))
	_ = p.AddConstraint("a", []Term{{x, 1}, {y, -1}}, LE, 1)
	_ = p.SetObjective(Maximize, []Term{{x, 1}})
	for _, core := range []Core{CoreDense, CoreRevised} {
		withCore(core, func() {
			s, err := p.Solve()
			mustNoErr(t, err)
			if s.Status != Unbounded {
				t.Fatalf("core %v: status %v, want Unbounded", core, s.Status)
			}
		})
	}
}

// TestCoresAgreeOnWarmChains drives the Gray-walk shape (sibling programs
// through one carried Basis) under both cores: every verdict must equal an
// independent cold solve of the same program on the same core.
func TestCoresAgreeOnWarmChains(t *testing.T) {
	for _, core := range []Core{CoreDense, CoreRevised} {
		withCore(core, func() {
			rng := rand.New(rand.NewSource(31))
			const d, npts = 3, 6
			pts := make([][]float64, npts)
			for i := range pts {
				pts[i] = randVec(rng, d)
			}
			ws := NewWorkspace()
			var bas Basis
			warm := NewProblem()
			for step := 0; step < 80; step++ {
				pts[step%npts] = randVec(rng, d)
				z := randVec(rng, d)
				if step%3 == 0 {
					for l := 0; l < d; l++ {
						z[l] = 0.25*pts[0][l] + 0.35*pts[1][l] + 0.4*pts[2][l]
					}
				}
				membershipProblem(t, warm, pts, z, 1e-7)
				got, err := warm.SolveWithBasis(ws, &bas)
				if err != nil {
					t.Fatalf("core %v step %d: warm: %v", core, step, err)
				}
				cold := NewProblem()
				membershipProblem(t, cold, pts, z, 1e-7)
				want, err := cold.Solve()
				if err != nil {
					t.Fatalf("core %v step %d: cold: %v", core, step, err)
				}
				if (got.Status == Optimal) != (want.Status == Optimal) {
					t.Fatalf("core %v step %d: warm %v cold %v", core, step, got.Status, want.Status)
				}
			}
		})
	}
}

// TestRevisedHotLongChain pushes a Hot handle through enough appends and
// re-solves to cross the refactorization cadence, checking every stage
// against a cold solve of the cumulative program — the eta-file and
// bordered-row operators must compose across refactorizations.
func TestRevisedHotLongChain(t *testing.T) {
	withCore(CoreRevised, func() {
		rng := rand.New(rand.NewSource(57))
		for trial := 0; trial < 10; trial++ {
			const nv = 6
			p := NewProblem()
			vars := make([]VarID, nv)
			for i := range vars {
				vars[i], _ = p.AddVar("x", 0, 100)
			}
			terms := make([]Term, nv)
			for i, v := range vars {
				terms[i] = Term{Var: v, Coeff: 1 + rng.Float64()}
			}
			_ = p.AddConstraint("base", terms, GE, 10)
			obj := make([]Term, nv)
			for i, v := range vars {
				obj[i] = Term{Var: v, Coeff: 0.5 + rng.Float64()}
			}
			_ = p.SetObjective(Minimize, obj)

			cold := NewProblem()
			cvars := make([]VarID, nv)
			for i := range cvars {
				cvars[i], _ = cold.AddVar("x", 0, 100)
			}
			cterms := make([]Term, nv)
			for i, v := range cvars {
				cterms[i] = Term{Var: v, Coeff: terms[i].Coeff}
			}
			_ = cold.AddConstraint("base", cterms, GE, 10)
			cobj := make([]Term, nv)
			for i, v := range cvars {
				cobj[i] = Term{Var: v, Coeff: obj[i].Coeff}
			}
			_ = cold.SetObjective(Minimize, cobj)

			sol, hot, err := p.SolveHot(NewWorkspace())
			if err != nil || sol.Status != Optimal || hot == nil {
				t.Fatalf("trial %d: root: %+v %v", trial, sol, err)
			}
			for step := 0; step < 25; step++ {
				// Append a row loose enough to keep the current vertex:
				// Σ aᵢxᵢ ≤ current value + slack.
				row := make([]Term, 0, nv)
				crow := make([]Term, 0, nv)
				var at float64
				for i := range vars {
					a := rng.Float64()
					if a < 0.3 {
						continue
					}
					row = append(row, Term{Var: vars[i], Coeff: a})
					crow = append(crow, Term{Var: cvars[i], Coeff: a})
					at += a * sol.Values[vars[i]]
				}
				if len(row) == 0 {
					continue
				}
				bound := at + 0.5 + rng.Float64()
				if err := hot.AppendLE(row, bound); err != nil {
					t.Fatalf("trial %d step %d: append: %v", trial, step, err)
				}
				if err := cold.AddConstraint("app", crow, LE, bound); err != nil {
					t.Fatal(err)
				}
				// Occasionally change the objective.
				if step%4 == 3 {
					for i := range obj {
						obj[i].Coeff = 0.5 + rng.Float64()
						cobj[i].Coeff = obj[i].Coeff
					}
					_ = p.SetObjective(Minimize, obj)
					_ = cold.SetObjective(Minimize, cobj)
				}
				sol, err = hot.Resolve()
				if err != nil || sol.Status != Optimal {
					t.Fatalf("trial %d step %d: resolve: %+v %v", trial, step, sol, err)
				}
				csol, err := cold.Solve()
				if err != nil || csol.Status != Optimal {
					t.Fatalf("trial %d step %d: cold: %+v %v", trial, step, csol, err)
				}
				if math.Abs(sol.Objective-csol.Objective) > 1e-5 {
					t.Fatalf("trial %d step %d: hot %g cold %g", trial, step, sol.Objective, csol.Objective)
				}
			}
		}
	})
}

// TestRevisedDeterminism: the revised core must be bit-deterministic —
// identical programs yield identical solution vectors.
func TestRevisedDeterminism(t *testing.T) {
	withCore(CoreRevised, func() {
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 50; trial++ {
			p, _, _ := randomLP(rng)
			a, err := p.Solve()
			mustNoErr(t, err)
			b, err := p.Solve()
			mustNoErr(t, err)
			if a.Status != b.Status {
				t.Fatalf("trial %d: status %v vs %v", trial, a.Status, b.Status)
			}
			if a.Status != Optimal {
				continue
			}
			for i := range a.Values {
				if a.Values[i] != b.Values[i] {
					t.Fatalf("trial %d: x%d %v vs %v", trial, i, a.Values[i], b.Values[i])
				}
			}
		}
	})
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
