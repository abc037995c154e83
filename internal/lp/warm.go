package lp

import (
	"errors"
	"fmt"
	"math"
)

// This file is the warm-start layer of the solver: reusing the work of a
// previous solve instead of re-running Phase 1 from the all-artificial basis.
//
// Two forms are provided:
//
//   - Hot + AppendLE + Resolve: keep *one* program's final state alive
//     across objective changes and appended ≤-rows (the lex-min pinning
//     chain of internal/hull), re-pricing the retained basis instead of
//     rebuilding it. This is the warm start production relies on.
//   - Basis + SolveWithBasis: restart a *sibling* program (same shape,
//     slightly different coefficients) from the previous program's
//     optimal basis, refactored against the new coefficients; if it is
//     primal feasible there, Phase 1 is skipped. Only the revised kernel
//     warm-starts: a program of at most smallCoreRows rows solves cold.
//     Its one caller is the benchmark's lp.warm_solve_us probe — hull
//     membership queries are dense-kernel sized, and a warm start there
//     cost what a cold solve does — so the path can go once the
//     benchmark stops importing this package.
//
// CAUTION — determinism vs. purity. Every solve here is deterministic (same
// inputs, same basis → same bits), but a warm-started *solution vector* is a
// function of the program AND the starting basis: on a degenerate optimal
// face, different bases can reach different optimal vertices. Callers that
// cache or exchange solution points must therefore only use warm starts
// where the whole warm chain is a pure function of the memo key, as the
// lex-min stages of one candidate set are (internal/hull).

// Basis is a reusable snapshot of an optimal revised-kernel basis: the set
// of basic columns in standard-form column space. Its zero value is empty
// (cold). A Basis may be carried between Problems of identical shape;
// SolveWithBasis validates it against the target program and silently
// falls back to a cold two-phase solve when it does not fit.
type Basis struct {
	cols []int
	m, n int
}

// Valid reports whether the basis holds a usable snapshot.
func (b *Basis) Valid() bool { return b != nil && len(b.cols) > 0 }

// Reset clears the snapshot (the next SolveWithBasis runs cold).
func (b *Basis) Reset() { b.cols = b.cols[:0] }

// capture snapshots the final basis of a solve when every basic column is
// structural or slack (an artificial left basic — a degenerate null row —
// cannot seed a warm start, so the snapshot is invalidated instead).
func (b *Basis) capture(basis []int, m, n int) {
	b.m, b.n = m, n
	b.cols = b.cols[:0]
	for _, c := range basis {
		if c >= n {
			return // leaves cols empty → invalid
		}
	}
	b.cols = append(b.cols, basis...)
}

// Reset clears the problem's variables, constraints and objective while
// keeping the allocated capacity, so one Problem value can be rebuilt many
// times without per-build allocation (the membership testers of
// internal/hull rebuild a same-shaped program per candidate subset).
func (p *Problem) Reset() {
	p.varLo = p.varLo[:0]
	p.varHi = p.varHi[:0]
	p.varNames = p.varNames[:0]
	p.rows = p.rows[:0]
	p.rels = p.rels[:0]
	p.rhs = p.rhs[:0]
	p.rowNames = p.rowNames[:0]
	p.objSense = Minimize
	p.obj = p.obj[:0]
}

// SolveWithBasis is SolveWith seeded by a previous optimal basis. On a
// program above smallCoreRows rows the candidate basis is refactored
// directly against the new program's coefficients (one LU factorization
// instead of Phase 1); when the resulting basic solution is primal
// feasible the solve proceeds directly to Phase 2. When the basis does not
// fit (wrong shape, singular factorization, infeasible basic point) the
// solve falls back to the cold two-phase path. On an Optimal outcome the
// basis snapshot is replaced by this solve's final basis; otherwise it is
// invalidated. A program of at most smallCoreRows rows is solved cold on
// the dense kernel, and the basis is invalidated.
//
// See the package note above on when a warm-started solution may be used.
func (p *Problem) SolveWithBasis(ws *Workspace, bas *Basis) (*Solution, error) {
	if bas == nil {
		return p.SolveWith(ws)
	}
	std, err := p.standardize(ws)
	if err != nil {
		return nil, err
	}
	if std.useDense() {
		bas.Reset()
		return p.solveOn(std, ws, true)
	}
	return p.solveWithBasisRevised(std, ws, bas)
}

// solveWithBasisRevised is the body of SolveWithBasis on the revised
// kernel, at any program size.
func (p *Problem) solveWithBasisRevised(std *standard, ws *Workspace, bas *Basis) (*Solution, error) {
	var (
		status Status
		x      []float64
		warmed bool
		err    error
	)
	if bas.Valid() && bas.m == std.m && bas.n == std.n {
		status, x, warmed = std.solveWarmRevised(ws, bas.cols)
	}
	if !warmed {
		status, x, err = std.solveRevised(ws)
		if err != nil {
			bas.Reset()
			return nil, err
		}
	}
	if status == Optimal {
		bas.capture(ws.basis, std.m, std.n)
	} else {
		bas.Reset()
	}
	return p.assemble(std, status, x)
}

// assemble converts a standard-form outcome into the public Solution.
func (p *Problem) assemble(std *standard, status Status, x []float64) (*Solution, error) {
	sol := &Solution{Status: status}
	if status != Optimal {
		return sol, nil
	}
	sol.Values = std.recover(x)
	var obj float64
	for _, t := range p.obj {
		obj += t.Coeff * sol.Values[t.Var]
	}
	sol.Objective = obj
	return sol, nil
}

// ErrHotInfeasible is returned by Hot.AppendLE when the appended row cuts
// off the current optimal vertex — the retained tableau cannot absorb it and
// the caller must fall back to a cold solve of the extended program.
var ErrHotInfeasible = errors.New("lp: appended row infeasible at the current vertex")

// Hot is the retained state of a solved Problem: the final basis (the LU
// factors and update file on the revised core; the full tableau on the
// dense core) and standardization stay live in the Workspace, so follow-up
// solves that only change the objective (Resolve) or append a ≤-row
// satisfied by the current vertex (AppendLE) re-price and run Phase 2
// pivots instead of re-standardizing and re-running Phase 1. This is the
// solver half of the lex-min warm-start ladder: internal/hull pins
// coordinate l by appending one ≤-row and re-minimizing coordinate l+1 on
// the same retained state. On the revised core an appended row costs one
// bordered-row operator over the retained factors — the appended slack
// enters the basis on the new row, which keeps the extended basis
// block-triangular, so nothing is refactored.
//
// A Hot handle owns its Workspace until dropped: the caller must not issue
// other solves through the same Workspace while the handle is in use. All
// operations are deterministic; the purity caveat in the package note
// applies (a Hot chain's outputs are a pure function of the root program and
// the exact operation sequence).
type Hot struct {
	p     *Problem
	ws    *Workspace
	std   *standard
	rev   *hotRev // revised-core state; nil on the dense core
	m, n  int     // current tableau dimensions (dense core; grow with AppendLE)
	width int
}

// SolveHot is SolveWith that additionally returns a Hot handle retaining the
// solved basis for objective changes and row appends. The handle is only
// returned on an Optimal outcome of a program with at least one row (there
// is nothing to retain otherwise).
func (p *Problem) SolveHot(ws *Workspace) (*Solution, *Hot, error) {
	std, err := p.standardize(ws)
	if err != nil {
		return nil, nil, err
	}
	return p.solveHotOn(std, ws, std.useDense())
}

// solveHotOn is the body of SolveHot on the dense tableau kernel (dense)
// or on the revised kernel. A dense Hot stays on the dense kernel however
// many rows AppendLE adds.
func (p *Problem) solveHotOn(std *standard, ws *Workspace, dense bool) (*Solution, *Hot, error) {
	if dense {
		status, x, err := std.solve(ws)
		if err != nil {
			return nil, nil, err
		}
		sol, err := p.assemble(std, status, x)
		if err != nil || status != Optimal || std.m == 0 {
			return sol, nil, err // a row-less solve builds no tableau
		}
		return sol, &Hot{p: p, ws: ws, std: std, m: std.m, n: std.n, width: std.n + std.m + 1}, nil
	}
	status, x, rv, err := std.solveRevisedKeep(ws)
	if err != nil {
		return nil, nil, err
	}
	sol, err := p.assemble(std, status, x)
	if err != nil || status != Optimal || rv == nil {
		return sol, nil, err
	}
	return sol, &Hot{p: p, ws: ws, std: std, rev: &hotRev{rv: rv}}, nil
}

// AppendLE appends the constraint Σ termᵢ ≤ rhs to the retained tableau.
// The new row is expressed in the current basis by eliminating the basic
// columns, and its slack becomes the new row's basic variable — valid
// precisely when the current vertex satisfies the row (slack ≥ 0), which is
// the lex-min pinning case by construction (the pin bound is the current
// optimum plus slack). ErrHotInfeasible reports a violated row; the tableau
// is unchanged and still usable in that case.
func (h *Hot) AppendLE(terms []Term, rhs float64) error {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return errors.New("lp: appended row has non-finite rhs")
	}
	for _, tm := range terms {
		if int(tm.Var) < 0 || int(tm.Var) >= len(h.p.varLo) {
			return fmt.Errorf("lp: appended row references unknown variable %d", tm.Var)
		}
		if math.IsNaN(tm.Coeff) || math.IsInf(tm.Coeff, 0) {
			return errors.New("lp: appended row has non-finite coefficient")
		}
	}
	if h.rev != nil {
		return h.rev.appendLE(h.std, h.ws, terms, rhs)
	}
	ws := h.ws
	m, n, width := h.m, h.n, h.width
	t := ws.tab

	// Build the raw standardized row (new layout: structural+slack columns
	// 0..n−1, the new slack at n, artificials shifted to n+1.., rhs last).
	newWidth := width + 2
	newRow := growZero(&ws.rowBuf, newWidth)
	b := rhs
	for _, tm := range terms {
		v := h.std.varMap[tm.Var]
		switch v.kind {
		case varShift:
			newRow[v.col] += tm.Coeff
			b -= tm.Coeff * v.off
		case varMirror:
			newRow[v.col] -= tm.Coeff
			b -= tm.Coeff * v.off
		case varSplit:
			newRow[v.col] += tm.Coeff
			newRow[v.col2] -= tm.Coeff
		}
	}
	newRow[n] = 1 // the appended row's slack
	newRow[newWidth-1] = b

	// Re-lay the tableau with one more column pair (slack + rhs shift) and
	// one more constraint row, into the alternate slab. Nothing the Hot
	// handle owns (ws.tab, ws.basis) is mutated until the row is accepted,
	// so a refused append leaves the retained state untouched.
	nt := growZero(&ws.tab2, (m+2)*newWidth)
	for i := 0; i < m; i++ {
		src := t[i*width : i*width+width]
		dst := nt[i*newWidth : i*newWidth+newWidth]
		copy(dst[:n], src[:n])
		copy(dst[n+1:n+1+m], src[n:n+m])
		dst[newWidth-1] = src[width-1]
	}
	// shifted maps a basic column into the new layout (artificial columns
	// — basic on null rows after a degenerate Phase 1 — move right by one).
	shifted := func(c int) int {
		if c >= n {
			return c + 1
		}
		return c
	}
	basis := ws.basis

	// Express the new row in the current basis: eliminate every basic
	// column using the (already reduced) rows above.
	for i := 0; i < m; i++ {
		c := shifted(basis[i])
		f := newRow[c]
		if f == 0 {
			continue
		}
		row := nt[i*newWidth : i*newWidth+newWidth]
		for j := range newRow {
			newRow[j] -= f * row[j]
		}
		newRow[c] = 0 // exact
	}
	slackVal := newRow[newWidth-1]
	if slackVal < -feasEps {
		return ErrHotInfeasible
	}
	if slackVal < 0 {
		newRow[newWidth-1] = 0
	}
	copy(nt[m*newWidth:(m+1)*newWidth], newRow)

	// Commit: swap slabs, shift the basis into the new layout, grow it
	// with the new slack.
	for i, c := range basis {
		basis[i] = shifted(c)
	}
	ws.tab, ws.tab2 = nt, ws.tab
	ws.basis = append(basis, n)
	h.m, h.n, h.width = m+1, n+1, newWidth
	return nil
}

// Resolve re-optimizes the retained state for the Problem's *current*
// objective (callers change it with SetObjective between stages): the
// reduced costs are re-priced from the new cost vector and Phase 2 runs
// from the current vertex — no re-standardization, no Phase 1. The possible
// statuses are Optimal and Unbounded (the vertex is feasible by
// construction).
func (h *Hot) Resolve() (*Solution, error) {
	if h.rev != nil {
		st, x, err := h.rev.resolve(h.p, h.std, h.ws)
		if err != nil {
			return nil, err
		}
		if st != Optimal {
			return &Solution{Status: st}, nil
		}
		return h.p.assemble(h.std, Optimal, x)
	}
	ws := h.ws
	m, n, width := h.m, h.n, h.width
	t := ws.tab
	basis := ws.basis

	// Standard-form cost vector for the current objective. Columns beyond
	// the original structural/slack set (appended slacks) cost zero.
	c := growZero(&ws.cvec, width)
	sign := 1.0
	if h.p.objSense == Maximize {
		sign = -1
	}
	for _, tm := range h.p.obj {
		v := h.std.varMap[tm.Var]
		switch v.kind {
		case varShift:
			c[v.col] += sign * tm.Coeff
		case varMirror:
			c[v.col] -= sign * tm.Coeff
		case varSplit:
			c[v.col] += sign * tm.Coeff
			c[v.col2] -= sign * tm.Coeff
		}
	}
	reprice(t, m, width, basis, c)
	if err := simplexLoop(t, m, width, basis, n, c); err != nil {
		if errors.Is(err, errUnboundedPivot) {
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	x := growZero(&ws.x, n)
	for i, bi := range basis {
		if bi < n {
			x[bi] = t[i*width+width-1]
		}
	}
	return h.p.assemble(h.std, Optimal, x)
}
