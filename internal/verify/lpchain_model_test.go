package verify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// This file is the stateful model for the LP warm-start layer: a chain of
// SolveWithBasis solves over mutating sibling joint-Γ programs, and one Hot
// (AppendLE/Resolve) tableau kept alive across row appends and objective
// changes, each checked against a cold from-scratch solve after every
// command. Membership programs ride along through one reused Problem and
// Workspace, the shape of hull.MembershipTester. The invariants are exactly the documented warm-start contract:
// statuses are basis-independent, objectives agree within tolerance —
// solution *vectors* are deliberately not compared (on a degenerate
// optimal face a warm start may land on a different optimal vertex).

// lpObjTol bounds the hot-vs-cold objective disagreement.
const lpObjTol = 1e-6

// LPSystem carries both chains. Construct with NewLPSystem.
type LPSystem struct {
	d, npts, f int

	// Reused membership program and warm Γ chain.
	pts      [][]float64
	warm     *lp.Problem
	ws       *lp.Workspace
	gamBasis lp.Basis

	// Hot chain state: the SUT tableau plus the row/objective mirror the
	// cold rebuild is made from.
	nv      int
	hotProb *lp.Problem
	hotVars []lp.VarID
	hot     *lp.Hot
	hotSol  *lp.Solution
	base    []float64   // base-row coefficients (Σ aᵢxᵢ ≥ 10)
	rows    [][]float64 // appended ≤-rows, dense nv coefficients
	bounds  []float64   // appended-row bounds
	obj     []float64   // current objective coefficients
}

// maxHotRows caps the hot chain so one sequence stays cheap.
const maxHotRows = 40

// NewLPSystem builds the system: npts points in dimension d for the
// membership/Γ chains (fault bound f), nv variables for the hot chain.
func NewLPSystem(d, npts, f, nv int) *LPSystem {
	return &LPSystem{d: d, npts: npts, f: f, nv: nv}
}

// CmdMutatePoint replaces point I of the membership multiset.
type CmdMutatePoint struct {
	I int
	V []float64
}

func (c CmdMutatePoint) String() string { return fmt.Sprintf("MutatePoint(%d, %v)", c.I, c.V) }

// CmdMember probes hull membership of Z: a solve through the reused
// Problem and Workspace vs a fresh one.
type CmdMember struct{ Z []float64 }

func (c CmdMember) String() string { return fmt.Sprintf("Member(%v)", c.Z) }

// CmdGamma solves the joint Γ-intersection feasibility program (all
// (npts−f)-subsets share one witness point) warm vs cold. With npts = 6,
// f = 2 the program has C(6,4)·(1+d) = 45 rows — past the small-program
// cutoff, so the revised core's warm refactorization path is under test.
type CmdGamma struct{}

func (CmdGamma) String() string { return "Gamma()" }

// CmdHotAppend appends Σ Coeffs·x ≤ (current value + Slack) to the hot
// tableau and to the cold mirror, then compares Resolve against a cold
// solve. The bound is computed from the current hot solution, keeping the
// retained vertex feasible (the lex-min pinning shape).
type CmdHotAppend struct {
	Coeffs []float64
	Slack  float64
}

func (c CmdHotAppend) String() string { return fmt.Sprintf("HotAppend(%v, %g)", c.Coeffs, c.Slack) }

// CmdHotObjective replaces the objective on both sides and compares.
type CmdHotObjective struct{ Coeffs []float64 }

func (c CmdHotObjective) String() string { return fmt.Sprintf("HotObjective(%v)", c.Coeffs) }

// Reset implements System.
func (s *LPSystem) Reset(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s.pts = make([][]float64, s.npts)
	for i := range s.pts {
		s.pts[i] = randVec(rng, s.d)
	}
	s.warm = lp.NewProblem()
	s.ws = lp.NewWorkspace()
	s.gamBasis.Reset()

	s.base = make([]float64, s.nv)
	s.obj = make([]float64, s.nv)
	for i := 0; i < s.nv; i++ {
		s.base[i] = 0.5 + rng.Float64()
		s.obj[i] = 0.5 + rng.Float64()
	}
	s.rows = s.rows[:0]
	s.bounds = s.bounds[:0]
	s.hotProb = lp.NewProblem()
	s.hotVars = make([]lp.VarID, s.nv)
	for i := range s.hotVars {
		v, err := s.hotProb.AddVar("x", 0, 100)
		if err != nil {
			panic(err)
		}
		s.hotVars[i] = v
	}
	if err := s.hotProb.AddConstraint("base", denseTerms(s.hotVars, s.base), lp.GE, 10); err != nil {
		panic(err)
	}
	if err := s.hotProb.SetObjective(lp.Minimize, denseTerms(s.hotVars, s.obj)); err != nil {
		panic(err)
	}
	sol, hot, err := s.hotProb.SolveHot(lp.NewWorkspace())
	if err != nil || sol.Status != lp.Optimal || hot == nil {
		panic(fmt.Sprintf("verify: hot root solve failed: %+v %v", sol, err))
	}
	s.hot, s.hotSol = hot, sol
}

// Apply implements System.
func (s *LPSystem) Apply(cmd Command) error {
	switch c := cmd.(type) {
	case CmdMutatePoint:
		if c.I < 0 || c.I >= s.npts || len(c.V) != s.d {
			return nil
		}
		s.pts[c.I] = append([]float64(nil), c.V...)
		return nil
	case CmdMember:
		if len(c.Z) != s.d {
			return nil
		}
		return s.checkMember(c.Z)
	case CmdGamma:
		return s.checkGamma()
	case CmdHotAppend:
		if len(c.Coeffs) != s.nv || len(s.rows) >= maxHotRows || !(c.Slack > 0) {
			return nil
		}
		return s.applyHotAppend(c)
	case CmdHotObjective:
		if len(c.Coeffs) != s.nv {
			return nil
		}
		for _, a := range c.Coeffs {
			if !(a > 0) {
				return nil // a free variable direction would be unbounded
			}
		}
		copy(s.obj, c.Coeffs)
		if err := s.hotProb.SetObjective(lp.Minimize, denseTerms(s.hotVars, s.obj)); err != nil {
			return fmt.Errorf("%s: SetObjective: %w", c, err)
		}
		return s.checkHot(c)
	default:
		return fmt.Errorf("verify: unknown command %T", cmd)
	}
}

// buildMembership writes the hull-membership feasibility program for pts/z
// into p (internal/hull's shape: convex weights reproducing z within tol).
func buildMembership(p *lp.Problem, pts [][]float64, z []float64, tol float64) error {
	p.Reset()
	alphas := make([]lp.VarID, len(pts))
	for i := range pts {
		v, err := p.AddVar("a", 0, math.Inf(1))
		if err != nil {
			return err
		}
		alphas[i] = v
	}
	sum := make([]lp.Term, len(pts))
	for i, a := range alphas {
		sum[i] = lp.Term{Var: a, Coeff: 1}
	}
	if err := p.AddConstraint("sum", sum, lp.EQ, 1); err != nil {
		return err
	}
	for l := range z {
		terms := make([]lp.Term, 0, len(pts))
		for i, a := range alphas {
			if pts[i][l] != 0 {
				terms = append(terms, lp.Term{Var: a, Coeff: pts[i][l]})
			}
		}
		if err := p.AddConstraint("lo", terms, lp.GE, z[l]-tol); err != nil {
			return err
		}
		if err := p.AddConstraint("hi", terms, lp.LE, z[l]+tol); err != nil {
			return err
		}
	}
	return p.SetObjective(lp.Minimize, nil)
}

func (s *LPSystem) checkMember(z []float64) error {
	if err := buildMembership(s.warm, s.pts, z, 1e-7); err != nil {
		return err
	}
	wsol, werr := s.warm.SolveWith(s.ws)
	cold := lp.NewProblem()
	if err := buildMembership(cold, s.pts, z, 1e-7); err != nil {
		return err
	}
	csol, cerr := cold.Solve()
	if (werr == nil) != (cerr == nil) {
		return fmt.Errorf("Member(%v): reused err %v, cold err %v", z, werr, cerr)
	}
	if werr != nil {
		return nil // both failed identically-shaped — no verdict to compare
	}
	if wsol.Status != csol.Status {
		return fmt.Errorf("Member(%v): reused %v, cold %v", z, wsol.Status, csol.Status)
	}
	return nil
}

// buildGamma writes the joint Γ-emptiness program: a shared witness z and
// per-(npts−f)-subset convex weights reproducing it. Feasible ⇔ Γ ≠ ∅.
func buildGamma(p *lp.Problem, pts [][]float64, d, f int) error {
	p.Reset()
	zvars := make([]lp.VarID, d)
	for l := 0; l < d; l++ {
		v, err := p.AddVar("z", -10, 10)
		if err != nil {
			return err
		}
		zvars[l] = v
	}
	keep := len(pts) - f
	for _, idx := range combinations(len(pts), keep) {
		alphas := make([]lp.VarID, keep)
		sum := make([]lp.Term, keep)
		for i := range idx {
			v, err := p.AddVar("a", 0, math.Inf(1))
			if err != nil {
				return err
			}
			alphas[i] = v
			sum[i] = lp.Term{Var: v, Coeff: 1}
		}
		if err := p.AddConstraint("sum", sum, lp.EQ, 1); err != nil {
			return err
		}
		for l := 0; l < d; l++ {
			terms := make([]lp.Term, 0, keep+1)
			for i, j := range idx {
				if pts[j][l] != 0 {
					terms = append(terms, lp.Term{Var: alphas[i], Coeff: pts[j][l]})
				}
			}
			terms = append(terms, lp.Term{Var: zvars[l], Coeff: -1})
			if err := p.AddConstraint("rep", terms, lp.EQ, 0); err != nil {
				return err
			}
		}
	}
	return p.SetObjective(lp.Minimize, nil)
}

func (s *LPSystem) checkGamma() error {
	if err := buildGamma(s.warm, s.pts, s.d, s.f); err != nil {
		return err
	}
	wsol, werr := s.warm.SolveWithBasis(s.ws, &s.gamBasis)
	cold := lp.NewProblem()
	if err := buildGamma(cold, s.pts, s.d, s.f); err != nil {
		return err
	}
	csol, cerr := cold.Solve()
	if (werr == nil) != (cerr == nil) {
		return fmt.Errorf("Gamma(): warm err %v, cold err %v", werr, cerr)
	}
	if werr != nil {
		return nil
	}
	if wsol.Status != csol.Status {
		return fmt.Errorf("Gamma(): warm %v, cold %v", wsol.Status, csol.Status)
	}
	return nil
}

func (s *LPSystem) applyHotAppend(c CmdHotAppend) error {
	row := make([]lp.Term, 0, s.nv)
	var at float64
	for i, a := range c.Coeffs {
		if a == 0 {
			continue
		}
		row = append(row, lp.Term{Var: s.hotVars[i], Coeff: a})
		at += a * s.hotSol.Values[s.hotVars[i]]
	}
	if len(row) == 0 {
		return nil
	}
	bound := at + c.Slack
	if err := s.hot.AppendLE(row, bound); err != nil {
		return fmt.Errorf("%s: AppendLE rejected a satisfied row: %w", c, err)
	}
	s.rows = append(s.rows, append([]float64(nil), c.Coeffs...))
	s.bounds = append(s.bounds, bound)
	return s.checkHot(c)
}

// checkHot resolves the retained tableau and compares status + objective
// against a cold rebuild of the accumulated program.
func (s *LPSystem) checkHot(cmd Command) error {
	sol, err := s.hot.Resolve()
	if err != nil {
		return fmt.Errorf("%s: Resolve: %w", cmd, err)
	}
	cold := lp.NewProblem()
	cvars := make([]lp.VarID, s.nv)
	for i := range cvars {
		v, aerr := cold.AddVar("x", 0, 100)
		if aerr != nil {
			return aerr
		}
		cvars[i] = v
	}
	if cerr := cold.AddConstraint("base", denseTerms(cvars, s.base), lp.GE, 10); cerr != nil {
		return cerr
	}
	for i, r := range s.rows {
		if cerr := cold.AddConstraint("app", denseTerms(cvars, r), lp.LE, s.bounds[i]); cerr != nil {
			return cerr
		}
	}
	if cerr := cold.SetObjective(lp.Minimize, denseTerms(cvars, s.obj)); cerr != nil {
		return cerr
	}
	csol, cerr := cold.Solve()
	if cerr != nil {
		return fmt.Errorf("%s: cold rebuild: %w", cmd, cerr)
	}
	if sol.Status != csol.Status {
		return fmt.Errorf("%s: hot %v, cold %v", cmd, sol.Status, csol.Status)
	}
	if sol.Status == lp.Optimal && math.Abs(sol.Objective-csol.Objective) > lpObjTol {
		return fmt.Errorf("%s: hot objective %g, cold %g (Δ=%g)", cmd, sol.Objective, csol.Objective, sol.Objective-csol.Objective)
	}
	s.hotSol = sol
	return nil
}

// LPGenerator is the default command mix across both chains.
func (s *LPSystem) LPGenerator() Generator {
	return func(rng *rand.Rand, _ int) Command {
		switch k := rng.Intn(10); {
		case k < 3:
			return CmdMutatePoint{I: rng.Intn(s.npts), V: randVec(rng, s.d)}
		case k < 5:
			return CmdMember{Z: randVec(rng, s.d)}
		case k < 6:
			return CmdGamma{}
		case k < 9:
			coeffs := make([]float64, s.nv)
			for i := range coeffs {
				if rng.Float64() < 0.7 {
					coeffs[i] = rng.Float64()
				}
			}
			return CmdHotAppend{Coeffs: coeffs, Slack: 0.5 + rng.Float64()}
		default:
			coeffs := make([]float64, s.nv)
			for i := range coeffs {
				coeffs[i] = 0.5 + rng.Float64()
			}
			return CmdHotObjective{Coeffs: coeffs}
		}
	}
}

func denseTerms(vars []lp.VarID, coeffs []float64) []lp.Term {
	terms := make([]lp.Term, 0, len(vars))
	for i, v := range vars {
		if coeffs[i] != 0 {
			terms = append(terms, lp.Term{Var: v, Coeff: coeffs[i]})
		}
	}
	return terms
}

// combinations enumerates all size-k subsets of {0..n−1} in lexicographic
// order (small n only — the Γ program shapes used here).
func combinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// TestLPChainStateful drives the warm-start layer: joint-Γ programs
// re-solved through a carried Basis (and membership programs through a
// reused Problem and Workspace) while the point set mutates,
// and a Hot tableau accumulating appended rows and objective swaps, each
// checked against cold from-scratch solves after every command.
func TestLPChainStateful(t *testing.T) {
	seeds, steps := 4, 50
	if testing.Short() {
		seeds, steps = 2, 25
	}
	sys := NewLPSystem(2, 6, 2, 5)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if fail := Run(sys, sys.LPGenerator(), seed, steps); fail != nil {
			t.Fatal(fail.Report())
		}
	}
}
