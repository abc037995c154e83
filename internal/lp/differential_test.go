package lp

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// This file is the differential suite between the two simplex kernels.
// Every program is standardized once per kernel and run on the dense
// tableau and on the revised simplex directly — cold (standard.solve vs
// standard.solveRevised) and hot (a dense Hot vs one kept from
// solveRevisedKeep) — so the size rule that routes small programs to the
// dense kernel in production does not hide the revised kernel here. The
// revised kernel's warm path (solveWarmRevised) is held to cold dense
// solves. The verdicts must agree (objectives within tolerance; solutions
// feasible).

// kernelName labels a kernel choice in failure messages.
func kernelName(dense bool) string {
	if dense {
		return "dense"
	}
	return "revised"
}

// solveKernel is SolveWith pinned to one kernel.
func solveKernel(p *Problem, ws *Workspace, dense bool) (*Solution, error) {
	std, err := p.standardize(ws)
	if err != nil {
		return nil, err
	}
	return p.solveOn(std, ws, dense)
}

// solveRevisedWithBasis is SolveWithBasis pinned to the revised kernel.
func solveRevisedWithBasis(p *Problem, ws *Workspace, bas *Basis) (*Solution, error) {
	std, err := p.standardize(ws)
	if err != nil {
		return nil, err
	}
	return p.solveWithBasisRevised(std, ws, bas)
}

// solveKernelHot is SolveHot pinned to one kernel. It fails the test when
// the handle does not sit on the requested kernel.
func solveKernelHot(t *testing.T, p *Problem, ws *Workspace, dense bool) (*Solution, *Hot, error) {
	t.Helper()
	std, err := p.standardize(ws)
	if err != nil {
		return nil, nil, err
	}
	sol, hot, err := p.solveHotOn(std, ws, dense)
	if hot != nil && (hot.rev == nil) != dense {
		t.Fatalf("%s Hot built on the wrong kernel", kernelName(dense))
	}
	return sol, hot, err
}

// requireAgree fails unless the two outcomes carry the same error parity,
// the same status and, when Optimal, objectives within 1e-5 (scaled).
func requireAgree(t *testing.T, label string, a, b *Solution, aerr, berr error) {
	t.Helper()
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("%s: error mismatch %v vs %v", label, aerr, berr)
	}
	if aerr != nil {
		return
	}
	if a.Status != b.Status {
		t.Fatalf("%s: status %v vs %v", label, a.Status, b.Status)
	}
	if a.Status != Optimal {
		return
	}
	if math.Abs(a.Objective-b.Objective) > 1e-5*math.Max(1, math.Abs(a.Objective)) {
		t.Fatalf("%s: objective %g vs %g", label, a.Objective, b.Objective)
	}
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

// sizedLP builds a random program whose standard form has exactly rows
// rows: rows−1 random LE/GE/EQ rows anchored at a feasible point, plus one
// Σx ≤ cap row that keeps every objective bounded. Variables are x ≥ 0,
// which standardize into no bound rows.
func sizedLP(rng *rand.Rand, rows int) *Problem {
	const nvars = 8
	p := NewProblem()
	vars := make([]VarID, nvars)
	xfeas := make([]float64, nvars)
	all := make([]Term, nvars)
	var sum float64
	for i := range vars {
		vars[i], _ = p.AddVar("x", 0, math.Inf(1))
		xfeas[i] = rng.Float64() * 2
		all[i] = Term{Var: vars[i], Coeff: 1}
		sum += xfeas[i]
	}
	_ = p.AddConstraint("cap", all, LE, sum+1)
	for r := 1; r < rows; r++ {
		terms := make([]Term, 0, nvars)
		var at float64
		for i, v := range vars {
			if rng.Intn(3) == 0 {
				continue
			}
			a := rng.Float64()*4 - 2
			terms = append(terms, Term{Var: v, Coeff: a})
			at += a * xfeas[i]
		}
		switch rng.Intn(5) {
		case 0:
			_ = p.AddConstraint("r", terms, EQ, at)
		case 1, 2:
			_ = p.AddConstraint("r", terms, GE, at-rng.Float64())
		default:
			_ = p.AddConstraint("r", terms, LE, at+rng.Float64())
		}
	}
	obj := make([]Term, nvars)
	for i, v := range vars {
		obj[i] = Term{Var: v, Coeff: rng.Float64()*2 - 1}
	}
	_ = p.SetObjective(Minimize, obj)
	return p
}

// checkFeasible verifies the solution against every constraint and bound.
func checkFeasible(t *testing.T, label string, p *Problem, sol *Solution) {
	t.Helper()
	for i := range p.varLo {
		v := sol.Values[i]
		if v < p.varLo[i]-1e-6 || v > p.varHi[i]+1e-6 {
			t.Fatalf("%s: x%d = %g violates bounds [%g, %g]", label, i, v, p.varLo[i], p.varHi[i])
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
				t.Fatalf("%s: row %d %g > %g", label, r, lhs, rhs)
			}
		case GE:
			if lhs < rhs-1e-6 {
				t.Fatalf("%s: row %d %g < %g", label, r, lhs, rhs)
			}
		case EQ:
			if math.Abs(lhs-rhs) > 1e-6 {
				t.Fatalf("%s: row %d %g != %g", label, r, lhs, rhs)
			}
		}
	}
}

// requireKernelsAgree solves p cold on both kernels and requires the same
// verdict, with each Optimal solution feasible.
func requireKernelsAgree(t *testing.T, label string, p *Problem) {
	t.Helper()
	dsol, derr := solveKernel(p, NewWorkspace(), true)
	rsol, rerr := solveKernel(p, NewWorkspace(), false)
	requireAgree(t, label+" dense vs revised", dsol, rsol, derr, rerr)
	if derr == nil && dsol.Status == Optimal {
		checkFeasible(t, label+" dense", p, dsol)
		checkFeasible(t, label+" revised", p, rsol)
	}
}

// TestCoresAgreeOnRandomLPs: both kernels must produce the same status and
// — when Optimal — the same objective within tolerance, each with a
// feasible solution. (The optimal VERTICES may differ on degenerate faces;
// the objective value and verdict are the invariants.)
func TestCoresAgreeOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 300; trial++ {
		p, _, _ := randomLP(rng)
		requireKernelsAgree(t, "trial "+itoa(trial), p)
	}
}

// TestCoresAgreeAtSizeBoundary runs the kernel pair on programs of exactly
// smallCoreRows and smallCoreRows+1 rows, the two sides of the size rule.
func TestCoresAgreeAtSizeBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3233))
	for _, rows := range []int{smallCoreRows, smallCoreRows + 1} {
		for trial := 0; trial < 40; trial++ {
			p := sizedLP(rng, rows)
			std, err := p.standardize(NewWorkspace())
			mustNoErr(t, err)
			if std.m != rows {
				t.Fatalf("sizedLP(%d) standardized to %d rows", rows, std.m)
			}
			requireKernelsAgree(t, itoa(rows)+" rows trial "+itoa(trial), p)
		}
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
		for _, dense := range []bool{true, false} {
			s, err := solveKernel(p, NewWorkspace(), dense)
			mustNoErr(t, err)
			if s.Status != Infeasible {
				t.Fatalf("trial %d %s: status %v, want Infeasible", trial, kernelName(dense), s.Status)
			}
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
	for _, dense := range []bool{true, false} {
		s, err := solveKernel(p, NewWorkspace(), dense)
		mustNoErr(t, err)
		if s.Status != Unbounded {
			t.Fatalf("%s: status %v, want Unbounded", kernelName(dense), s.Status)
		}
	}
}

// TestCoresAgreeOnWarmChains drives sibling programs through one carried
// Basis on the revised kernel: every warm verdict must equal an
// independent cold dense solve. Re-solving a feasible program from its own
// optimal basis must take the warm path.
func TestCoresAgreeOnWarmChains(t *testing.T) {
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
		rsol, rerr := solveRevisedWithBasis(warm, ws, &bas)
		csol, cerr := warm.SolveDense(NewWorkspace())
		requireAgree(t, "step "+itoa(step)+" warm revised vs cold dense", rsol, csol, rerr, cerr)
	}
	z := make([]float64, d)
	for l := range z {
		z[l] = 0.5*pts[0][l] + 0.5*pts[1][l]
	}
	membershipProblem(t, warm, pts, z, 1e-7)
	sol, err := solveRevisedWithBasis(warm, ws, &bas)
	if err != nil || sol.Status != Optimal || !bas.Valid() {
		t.Fatalf("feasible program: %+v %v, basis valid %v", sol, err, bas.Valid())
	}
	std, err := warm.standardize(ws)
	mustNoErr(t, err)
	if _, _, warmed := std.solveWarmRevised(ws, bas.cols); !warmed {
		t.Fatal("re-solve from its own optimal basis fell back to cold")
	}
}

// TestRevisedHotLongChain pushes a dense Hot and a revised Hot of the same
// program through enough appends and re-solves to cross the revised
// kernel's refactorization cadence, checking every stage against each
// other and against a cold solve of the cumulative program — the eta-file
// and bordered-row operators must compose across refactorizations.
func TestRevisedHotLongChain(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 10; trial++ {
		const nv = 6
		p := NewProblem()
		cold := NewProblem()
		vars := make([]VarID, nv)
		for i := range vars {
			vars[i], _ = p.AddVar("x", 0, 100)
			_, _ = cold.AddVar("x", 0, 100)
		}
		terms := make([]Term, nv)
		obj := make([]Term, nv)
		for i, v := range vars {
			terms[i] = Term{Var: v, Coeff: 1 + rng.Float64()}
			obj[i] = Term{Var: v, Coeff: 0.5 + rng.Float64()}
		}
		_ = p.AddConstraint("base", terms, GE, 10)
		_ = cold.AddConstraint("base", terms, GE, 10)
		_ = p.SetObjective(Minimize, obj)
		_ = cold.SetObjective(Minimize, obj)

		var sols [2]*Solution
		var hots [2]*Hot
		for k, dense := range []bool{true, false} {
			sol, hot, err := solveKernelHot(t, p, NewWorkspace(), dense)
			if err != nil || sol.Status != Optimal || hot == nil {
				t.Fatalf("trial %d %s: root: %+v %v", trial, kernelName(dense), sol, err)
			}
			sols[k], hots[k] = sol, hot
		}
		for step := 0; step < 25; step++ {
			// Append a row loose enough to keep both current vertices:
			// Σ aᵢxᵢ ≤ max over the kernels' vertices + slack.
			row := make([]Term, 0, nv)
			for _, v := range vars {
				if a := rng.Float64(); a >= 0.3 {
					row = append(row, Term{Var: v, Coeff: a})
				}
			}
			if len(row) == 0 {
				continue
			}
			at := math.Inf(-1)
			for _, sol := range sols {
				var v float64
				for _, tm := range row {
					v += tm.Coeff * sol.Values[tm.Var]
				}
				at = math.Max(at, v)
			}
			bound := at + 0.5 + rng.Float64()
			for k, hot := range hots {
				if err := hot.AppendLE(row, bound); err != nil {
					t.Fatalf("trial %d step %d %s: append: %v", trial, step, kernelName(k == 0), err)
				}
			}
			mustNoErr(t, cold.AddConstraint("app", row, LE, bound))
			// Occasionally change the objective.
			if step%4 == 3 {
				for i := range obj {
					obj[i].Coeff = 0.5 + rng.Float64()
				}
				_ = p.SetObjective(Minimize, obj)
				_ = cold.SetObjective(Minimize, obj)
			}
			csol, err := cold.SolveDense(NewWorkspace())
			if err != nil || csol.Status != Optimal {
				t.Fatalf("trial %d step %d: cold: %+v %v", trial, step, csol, err)
			}
			for k, hot := range hots {
				sol, err := hot.Resolve()
				label := "trial " + itoa(trial) + " step " + itoa(step) + " " + kernelName(k == 0) + " hot vs cold"
				requireAgree(t, label, sol, csol, err, nil)
				sols[k] = sol
			}
		}
	}
}

// TestRevisedDeterminism: the revised kernel must be bit-deterministic —
// identical programs yield identical solution vectors — on small programs
// and beyond the size rule alike.
func TestRevisedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		var p *Problem
		if trial < 50 {
			p, _, _ = randomLP(rng)
		} else {
			p = sizedLP(rng, smallCoreRows+1)
		}
		a, err := solveKernel(p, NewWorkspace(), false)
		mustNoErr(t, err)
		b, err := solveKernel(p, NewWorkspace(), false)
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
}

// TestPhase1MarginGap pins the documented tolerance gap between the
// kernels' phase-1 margins (feasEps = 1e-7 dense, p1FeasEps = 1e-6
// revised). The program is hull membership of z = (−1e-6, 0.5) in the
// triangle (0,0), (1,0), (0,1) at tol 1e-9: infeasible by just under 1e-6.
// The dense kernel rejects it; the revised kernel accepts it. This is the
// revised kernel's phase-1 margin at work, not a bug — a revised-kernel
// hull query (above smallCoreRows rows) may admit points up to ~1e-6
// outside a tighter tolerance band.
func TestPhase1MarginGap(t *testing.T) {
	p := NewProblem()
	membershipProblem(t, p, [][]float64{{0, 0}, {1, 0}, {0, 1}}, []float64{-1e-6, 0.5}, 1e-9)
	for _, tc := range []struct {
		dense bool
		want  Status
	}{{true, Infeasible}, {false, Optimal}} {
		sol, err := solveKernel(p, NewWorkspace(), tc.dense)
		mustNoErr(t, err)
		if sol.Status != tc.want {
			t.Errorf("%s kernel: status %v, want %v", kernelName(tc.dense), sol.Status, tc.want)
		}
	}
}

// TestSizeRuleBoundary solves programs of exactly smallCoreRows and
// smallCoreRows+1 rows through the public entry points — Solve,
// SolveWithBasis (capture, then a warm re-solve; only the revised side
// keeps a basis) and SolveHot with AppendLE rows that grow a dense Hot
// past smallCoreRows — and requires each to agree with the SolveDense
// oracle.
func TestSizeRuleBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3301))
	for _, rows := range []int{smallCoreRows, smallCoreRows + 1} {
		for trial := 0; trial < 20; trial++ {
			label := itoa(rows) + " rows trial " + itoa(trial)
			p := sizedLP(rng, rows)
			want, werr := p.SolveDense(NewWorkspace())
			got, err := p.Solve()
			requireAgree(t, label+" Solve", got, want, err, werr)

			ws := NewWorkspace()
			var bas Basis
			for pass := 0; pass < 2; pass++ {
				got, err = p.SolveWithBasis(ws, &bas)
				requireAgree(t, label+" SolveWithBasis", got, want, err, werr)
				if rows <= smallCoreRows && bas.Valid() {
					t.Fatalf("%s: a dense-kernel SolveWithBasis kept a basis", label)
				}
			}

			sol, hot, err := p.SolveHot(NewWorkspace())
			requireAgree(t, label+" SolveHot", sol, want, err, werr)
			if hot == nil {
				continue
			}
			if (hot.rev == nil) != (rows <= smallCoreRows) {
				t.Fatalf("%s: SolveHot on the wrong kernel", label)
			}
			for step := 0; step < 3; step++ {
				row := make([]Term, 0, len(p.varLo))
				var at float64
				for i := range p.varLo {
					a := rng.Float64()
					row = append(row, Term{Var: VarID(i), Coeff: a})
					at += a * sol.Values[i]
				}
				// Satisfied at the current vertex, so the append is legal.
				bound := at + 0.25*rng.Float64()
				if err := hot.AppendLE(row, bound); err != nil {
					t.Fatalf("%s step %d: append: %v", label, step, err)
				}
				mustNoErr(t, p.AddConstraint("app", row, LE, bound))
				obj := make([]Term, len(p.varLo))
				for i := range obj {
					obj[i] = Term{Var: VarID(i), Coeff: rng.Float64()*2 - 1}
				}
				mustNoErr(t, p.SetObjective(Minimize, obj))
				sol, err = hot.Resolve()
				want, werr = p.SolveDense(NewWorkspace())
				requireAgree(t, label+" step "+itoa(step)+" SolveHot+AppendLE", sol, want, err, werr)
				if err != nil || sol.Status != Optimal {
					break
				}
			}
		}
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
