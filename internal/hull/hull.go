// Package hull answers convex-hull queries by reduction to linear
// programming: membership of a point in the hull of a point multiset,
// existence of a point common to several hulls, and deterministic selection
// of the lexicographically minimal such point.
//
// These are exactly the geometric predicates the BVC algorithms need: the
// validity condition is hull membership, and the safe area Γ(Y) is an
// intersection of hulls (paper eq. (1)).
package hull

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geometry"
	"repro/internal/lp"
)

// DefaultTol is the geometric tolerance used when callers pass tol ≤ 0.
// Inputs in this repository are O(1) in magnitude, so an absolute tolerance
// is appropriate.
const DefaultTol = 1e-7

// Contains reports whether z lies in the convex hull of points, within the
// per-coordinate tolerance tol (DefaultTol if tol ≤ 0). It reduces to an LP
// feasibility problem in the convex weights α, solved through a pooled
// MembershipTester so repeated calls reuse problem/workspace buffers.
func Contains(points []geometry.Vector, z geometry.Vector, tol float64) (bool, error) {
	mt := testerPool.Get().(*MembershipTester)
	defer testerPool.Put(mt)
	return mt.Test(points, z, tol)
}

// intersectionProblem builds the shared LP skeleton for hull-intersection
// queries: free variables z[0..d), and for each group g convex weights
// α_{g,i} ≥ 0 with Σ_i α_{g,i} = 1 and Σ_i α_{g,i}·groups[g][i] = z.
// It returns the problem and the z variable ids.
func intersectionProblem(groups [][]geometry.Vector) (*lp.Problem, []lp.VarID, error) {
	if len(groups) == 0 {
		return nil, nil, errors.New("hull: intersection of zero hulls")
	}
	if len(groups[0]) == 0 {
		return nil, nil, errors.New("hull: group 0 is empty")
	}
	d := groups[0][0].Dim()

	prob := lp.NewProblem()
	zvars := make([]lp.VarID, d)
	for l := 0; l < d; l++ {
		v, err := prob.AddVar("z", math.Inf(-1), math.Inf(1))
		if err != nil {
			return nil, nil, err
		}
		zvars[l] = v
	}
	var uniq []geometry.Vector
	for g, pts := range groups {
		if len(pts) == 0 {
			return nil, nil, fmt.Errorf("hull: group %d is empty", g)
		}
		for i, p := range pts {
			if p.Dim() != d {
				return nil, nil, fmt.Errorf("hull: group %d point %d has dimension %d, want %d", g, i, p.Dim(), d)
			}
		}
		// Candidate multisets routinely repeat points (Byzantine echoes,
		// default vectors); a hull is a function of the point SET, so
		// duplicated members would only add exactly-identical LP columns —
		// numerically poisonous twins that make bases singular and reduced
		// costs pure noise. Keep the first occurrence of each distinct
		// point (deterministic, so every process builds the identical
		// program).
		uniq = dedupePoints(uniq[:0], pts)
		pts = uniq
		alphas := make([]lp.VarID, len(pts))
		for i := range pts {
			v, err := prob.AddVar("a", 0, math.Inf(1))
			if err != nil {
				return nil, nil, err
			}
			alphas[i] = v
		}
		sum := make([]lp.Term, len(pts))
		for i, a := range alphas {
			sum[i] = lp.Term{Var: a, Coeff: 1}
		}
		if err := prob.AddConstraint("sum", sum, lp.EQ, 1); err != nil {
			return nil, nil, err
		}
		for l := 0; l < d; l++ {
			terms := make([]lp.Term, 0, len(pts)+1)
			for i, a := range alphas {
				if pts[i][l] != 0 {
					terms = append(terms, lp.Term{Var: a, Coeff: pts[i][l]})
				}
			}
			terms = append(terms, lp.Term{Var: zvars[l], Coeff: -1})
			if err := prob.AddConstraint("eq", terms, lp.EQ, 0); err != nil {
				return nil, nil, err
			}
		}
	}
	return prob, zvars, nil
}

// dedupePoints appends the first occurrence of each distinct point of pts
// to dst (exact bit-equality; the small quadratic scan beats hashing at
// candidate-set sizes).
func dedupePoints(dst, pts []geometry.Vector) []geometry.Vector {
	for _, p := range pts {
		dup := false
		for _, q := range dst {
			if p.Equal(q) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p)
		}
	}
	return dst
}

// CommonPoint finds some point lying in every conv(groups[g]). The boolean
// result reports whether the intersection is non-empty. The returned point is
// deterministic for identical inputs (simplex pivoting is deterministic) but
// otherwise unspecified; use LexMinCommonPoint when a canonical point is
// required.
func CommonPoint(groups [][]geometry.Vector) (geometry.Vector, bool, error) {
	prob, zvars, err := intersectionProblem(groups)
	if err != nil {
		return nil, false, err
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, false, err
	}
	if sol.Status != lp.Optimal {
		return nil, false, nil
	}
	return pointFrom(sol, zvars), true, nil
}

// lexWSPool reuses the workspaces backing the lex-min stage chains (their
// Hot handles need a workspace that outlives a single Solve call).
var lexWSPool = sync.Pool{New: func() any { return lp.NewWorkspace() }}

// pinSlack keeps successive lex-min LPs feasible in floating point; it is
// deterministic, so all correct processes still agree exactly. It must
// dominate the solver's own tolerance (feasibility is checked to ~1e-7) or
// degenerate stages go infeasible after pinning.
const pinSlack = 1e-6

// LexMinCommonPoint finds the lexicographically minimal point of
// ∩ conv(groups[g]) by minimizing z₁, pinning it, minimizing z₂, and so on.
// This is the deterministic choice function used by the Exact BVC algorithm
// (paper §2.2: "all non-faulty processes choose the point identically using
// a deterministic function").
//
// Stages 2…d are warm-started: the pin row is appended into the retained
// stage-1 tableau (lp.Hot) and the next objective is re-priced from the
// current vertex, so Phase 1 runs once per candidate set instead of once per
// coordinate. The chain is a pure function of groups — every correct process
// walks the identical stage sequence — and any warm-path failure falls back
// to the cold per-stage solve.
func LexMinCommonPoint(groups [][]geometry.Vector) (geometry.Vector, bool, error) {
	prob, zvars, err := intersectionProblem(groups)
	if err != nil {
		return nil, false, err
	}
	if err := prob.SetObjective(lp.Minimize, []lp.Term{{Var: zvars[0], Coeff: 1}}); err != nil {
		return nil, false, err
	}
	ws := lexWSPool.Get().(*lp.Workspace)
	defer lexWSPool.Put(ws)
	sol, hot, err := prob.SolveHot(ws)
	if err != nil {
		return nil, false, err
	}
	if sol.Status == lp.Infeasible {
		return nil, false, nil
	}
	if sol.Status != lp.Optimal {
		return nil, false, fmt.Errorf("hull: lexmin stage 0 status %v", sol.Status)
	}
	bounds := make([]float64, 0, len(zvars)-1)
	for l := 1; l < len(zvars); l++ {
		pin := []lp.Term{{Var: zvars[l-1], Coeff: 1}}
		bound := sol.Values[zvars[l-1]] + pinSlack
		bounds = append(bounds, bound)
		if err := hot.AppendLE(pin, bound); err != nil {
			// The retained vertex satisfies the pin by construction, so a
			// refusal indicates numerical drift: fall back to cold stages.
			return lexMinCold(prob, zvars, sol, l, bounds)
		}
		if err := prob.SetObjective(lp.Minimize, []lp.Term{{Var: zvars[l], Coeff: 1}}); err != nil {
			return nil, false, err
		}
		next, err := hot.Resolve()
		if err != nil || next.Status != lp.Optimal {
			return lexMinCold(prob, zvars, sol, l, bounds)
		}
		sol = next
	}
	return pointFrom(sol, zvars), true, nil
}

// lexMinCold finishes the lex-min chain with cold per-stage solves from
// stage l onward. The warm path keeps its pin rows in the tableau only, so
// every pin bound decided so far (bounds[i] pins zvars[i]) is re-added to
// the modeling problem first. prev is stage l−1's optimal solution.
func lexMinCold(prob *lp.Problem, zvars []lp.VarID, prev *lp.Solution, l int, bounds []float64) (geometry.Vector, bool, error) {
	for i, bound := range bounds {
		if err := prob.AddConstraint("pin", []lp.Term{{Var: zvars[i], Coeff: 1}}, lp.LE, bound); err != nil {
			return nil, false, err
		}
	}
	sol := prev
	for ; l < len(zvars); l++ {
		if err := prob.SetObjective(lp.Minimize, []lp.Term{{Var: zvars[l], Coeff: 1}}); err != nil {
			return nil, false, err
		}
		next, err := prob.Solve()
		if err != nil {
			return nil, false, err
		}
		if next.Status == lp.Infeasible {
			return nil, false, fmt.Errorf("hull: lexmin stage %d infeasible after pinning", l)
		}
		if next.Status != lp.Optimal {
			return nil, false, fmt.Errorf("hull: lexmin stage %d status %v", l, next.Status)
		}
		sol = next
		if l < len(zvars)-1 {
			pin := []lp.Term{{Var: zvars[l], Coeff: 1}}
			if err := prob.AddConstraint("pin", pin, lp.LE, next.Values[zvars[l]]+pinSlack); err != nil {
				return nil, false, err
			}
		}
	}
	return pointFrom(sol, zvars), true, nil
}

// IntersectionEmpty reports whether ∩ conv(groups[g]) is empty.
func IntersectionEmpty(groups [][]geometry.Vector) (bool, error) {
	_, ok, err := CommonPoint(groups)
	if err != nil {
		return false, err
	}
	return !ok, nil
}

func pointFrom(sol *lp.Solution, zvars []lp.VarID) geometry.Vector {
	out := geometry.NewVector(len(zvars))
	for l, v := range zvars {
		out[l] = sol.Values[v]
	}
	return out
}
