package hull

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geometry"
	"repro/internal/lp"
)

// MembershipTester answers hull-membership queries through one reusable
// modeling problem and one solver workspace, so repeated queries are
// allocation-free in steady state. Every query solves cold: its verdict is
// a function of the query alone, whatever the tester answered before. A
// MembershipTester is not safe for concurrent use; use one per goroutine.
type MembershipTester struct {
	prob *lp.Problem
	ws   *lp.Workspace

	alphas []lp.VarID
	terms  []lp.Term
	uniq   []geometry.Vector
}

// NewMembershipTester returns an empty tester.
func NewMembershipTester() *MembershipTester {
	return &MembershipTester{prob: lp.NewProblem(), ws: lp.NewWorkspace()}
}

// testerPool backs Contains so that one-shot callers still reuse problems
// and workspaces across calls.
var testerPool = sync.Pool{New: func() any { return NewMembershipTester() }}

// Test reports whether z lies in the convex hull of points within tol
// (DefaultTol if tol ≤ 0). Semantics are identical to Contains.
func (mt *MembershipTester) Test(points []geometry.Vector, z geometry.Vector, tol float64) (bool, error) {
	if len(points) == 0 {
		return false, errors.New("hull: membership in hull of empty set")
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	d := z.Dim()
	for i, p := range points {
		if p.Dim() != d {
			return false, fmt.Errorf("hull: point %d has dimension %d, want %d", i, p.Dim(), d)
		}
	}
	// Duplicate points add exactly-identical columns (numerically
	// poisonous twins — see hull.dedupePoints); membership only depends on
	// the point set, so keep the first occurrence of each.
	mt.uniq = dedupePoints(mt.uniq[:0], points)
	points = mt.uniq

	prob := mt.prob
	prob.Reset()
	if cap(mt.alphas) < len(points) {
		mt.alphas = make([]lp.VarID, 0, len(points))
	}
	alphas := mt.alphas[:0]
	for range points {
		v, err := prob.AddVar("a", 0, math.Inf(1))
		if err != nil {
			return false, err
		}
		alphas = append(alphas, v)
	}
	mt.alphas = alphas
	if cap(mt.terms) < len(points)+1 {
		mt.terms = make([]lp.Term, 0, len(points)+1)
	}
	terms := mt.terms[:0]
	for _, a := range alphas {
		terms = append(terms, lp.Term{Var: a, Coeff: 1})
	}
	if err := prob.AddConstraint("sum", terms, lp.EQ, 1); err != nil {
		return false, err
	}
	for l := 0; l < d; l++ {
		terms = terms[:0]
		for i, a := range alphas {
			if points[i][l] != 0 {
				terms = append(terms, lp.Term{Var: a, Coeff: points[i][l]})
			}
		}
		if err := prob.AddConstraint("lo", terms, lp.GE, z[l]-tol); err != nil {
			return false, err
		}
		if err := prob.AddConstraint("hi", terms, lp.LE, z[l]+tol); err != nil {
			return false, err
		}
	}
	mt.terms = terms
	sol, err := prob.SolveWith(mt.ws)
	if err != nil {
		return false, err
	}
	return sol.Status == lp.Optimal, nil
}
