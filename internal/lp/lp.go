// Package lp implements a two-phase primal simplex solver for linear
// programs, plus a small modeling layer (named variables with bounds,
// ≤ / ≥ / = rows, minimize or maximize objectives). Two kernels run the
// simplex, chosen by program size alone: a dense accumulated tableau for
// programs of at most smallCoreRows rows (simplex.go), and a revised
// simplex maintaining only an LU-factored basis with product-form updates
// and periodic refactorization for the rest (revised.go). SolveDense pins
// the dense kernel at every size as a differential oracle.
//
// The Byzantine vector consensus algorithms of Vaidya & Garg reduce their
// geometric core to linear programming: testing whether a point lies in a
// convex hull, testing whether the safe area Γ(Y) is empty, and selecting a
// deterministic point inside Γ(Y) (paper §2.2 spells out the LP). This
// package is that substrate, built only on the standard library.
//
// The solver uses Bland's anti-cycling rule, so it terminates on every input;
// pivoting is deterministic, so identical problems yield bit-identical
// solutions on every process — a property the consensus algorithms rely on
// when all correct processes must select the same point.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects minimization or maximization of the objective.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota + 1 // Σ aᵢxᵢ ≤ rhs
	GE                // Σ aᵢxᵢ ≥ rhs
	EQ                // Σ aᵢxᵢ = rhs
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// VarID identifies a variable within a Problem.
type VarID int

// Term is one coefficient·variable product in a linear expression.
type Term struct {
	Var   VarID
	Coeff float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with NewProblem.
type Problem struct {
	varLo    []float64
	varHi    []float64
	varNames []string

	rows     [][]Term
	rels     []Rel
	rhs      []float64
	rowNames []string

	objSense Sense
	obj      []Term
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// Objective is the optimal objective value in the problem's own sense.
	// Meaningful only when Status == Optimal.
	Objective float64
	// Values holds the optimal value of each variable, indexed by VarID.
	// Meaningful only when Status == Optimal.
	Values []float64
}

// ErrNotSolved is returned when a solution accessor is used on a non-optimal
// solution.
var ErrNotSolved = errors.New("lp: problem has no optimal solution")

// NewProblem returns an empty problem with a Minimize-zero objective.
func NewProblem() *Problem {
	return &Problem{objSense: Minimize}
}

// AddVar adds a variable with bounds lo ≤ x ≤ hi and returns its id. Use
// math.Inf(-1) / math.Inf(1) for unbounded sides. NaN bounds or lo > hi are
// rejected.
func (p *Problem) AddVar(name string, lo, hi float64) (VarID, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, fmt.Errorf("lp: variable %q has NaN bound", name)
	}
	if lo > hi {
		return 0, fmt.Errorf("lp: variable %q has lo=%g > hi=%g", name, lo, hi)
	}
	p.varLo = append(p.varLo, lo)
	p.varHi = append(p.varHi, hi)
	p.varNames = append(p.varNames, name)
	return VarID(len(p.varLo) - 1), nil
}

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddConstraint adds the row Σ termᵢ rel rhs.
func (p *Problem) AddConstraint(name string, terms []Term, rel Rel, rhs float64) error {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %q has non-finite rhs %g", name, rhs)
	}
	if rel != LE && rel != GE && rel != EQ {
		return fmt.Errorf("lp: constraint %q has invalid relation", name)
	}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.varLo) {
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, t.Var)
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return fmt.Errorf("lp: constraint %q has non-finite coefficient", name)
		}
	}
	row := make([]Term, len(terms))
	copy(row, terms)
	p.rows = append(p.rows, row)
	p.rels = append(p.rels, rel)
	p.rhs = append(p.rhs, rhs)
	p.rowNames = append(p.rowNames, name)
	return nil
}

// SetObjective replaces the objective with sense·Σ termᵢ.
func (p *Problem) SetObjective(sense Sense, terms []Term) error {
	if sense != Minimize && sense != Maximize {
		return errors.New("lp: invalid objective sense")
	}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.varLo) {
			return fmt.Errorf("lp: objective references unknown variable %d", t.Var)
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return errors.New("lp: objective has non-finite coefficient")
		}
	}
	p.objSense = sense
	p.obj = make([]Term, len(terms))
	copy(p.obj, terms)
	return nil
}

// Solve standardizes the problem and runs two-phase simplex. A Solution with
// Status Infeasible or Unbounded is returned without error; error indicates
// a malformed problem or an internal failure (e.g. iteration cap). Scratch
// buffers come from an internal pool; callers solving many problems on one
// goroutine can pass their own Workspace to SolveWith instead.
func (p *Problem) Solve() (*Solution, error) {
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	return p.SolveWith(ws)
}

// SolveWith is Solve with caller-managed scratch: repeated solves through
// the same Workspace reuse its buffers, so steady-state allocation is just
// the returned Solution.
func (p *Problem) SolveWith(ws *Workspace) (*Solution, error) {
	std, err := p.standardize(ws)
	if err != nil {
		return nil, err
	}
	return p.solveOn(std, ws, std.useDense())
}

// SolveDense is SolveWith on the dense tableau kernel at every program
// size. It is the differential oracle for the size-chosen kernels of
// Solve, SolveWith, SolveWithBasis and SolveHot, which production code
// calls instead. It keeps no state between calls.
func (p *Problem) SolveDense(ws *Workspace) (*Solution, error) {
	std, err := p.standardize(ws)
	if err != nil {
		return nil, err
	}
	return p.solveOn(std, ws, true)
}

// solveOn runs the cold two-phase solve of std on the dense tableau kernel
// (dense) or on the revised kernel.
func (p *Problem) solveOn(std *standard, ws *Workspace, dense bool) (*Solution, error) {
	status, x, err := std.solveCold(ws, dense)
	if err != nil {
		return nil, err
	}
	return p.assemble(std, status, x)
}

// solveCold is the standard-form half of solveOn.
func (s *standard) solveCold(ws *Workspace, dense bool) (Status, []float64, error) {
	if dense {
		return s.solve(ws)
	}
	return s.solveRevised(ws)
}

// smallCoreRows is the dense kernel's size limit: programs with at most
// this many rows run on the dense tableau, larger ones on the revised LU
// simplex. At these sizes the whole tableau fits in cache, a pivot is one
// fused pass, and the pivot sequences are far too short for the
// incremental cost row to accumulate meaningful drift — while the revised
// machinery (factorization, triangular solves, per-iteration pricing) is
// pure overhead. The fragile degenerate regime starts well above this size
// (the smallest fragile joint LPs have 60+ rows) and always runs on the
// LU-factored path.
const smallCoreRows = 32

// useDense is the one kernel-choice rule of the public entry points: the
// dense tableau for small programs, the revised simplex for the rest.
func (s *standard) useDense() bool { return s.m <= smallCoreRows }

// standard is the standard-form program min c·y s.t. Ay = b, y ≥ 0, together
// with the bookkeeping needed to map a standard-form solution back to the
// original variables. Its slices alias Workspace buffers.
type standard struct {
	m, n int       // rows, columns
	a    []float64 // m×n, row-major
	b    []float64
	c    []float64

	// varMap describes how each original variable is represented:
	// shifted (y = x − lo), mirrored (y = hi − x) or split (x = y⁺ − y⁻).
	varMap []stdVar
}

type stdVar struct {
	kind stdVarKind
	col  int     // primary standard column
	col2 int     // negative part for split variables
	off  float64 // shift offset (lo) or mirror origin (hi)
}

type stdVarKind int

const (
	varShift  stdVarKind = iota + 1 // x = off + y
	varMirror                       // x = off − y
	varSplit                        // x = y − y2
)

// standardize converts the modeling-layer problem into standard form,
// building the dense constraint matrix directly in ws's buffers (no
// intermediate per-row maps).
func (p *Problem) standardize(ws *Workspace) (*standard, error) {
	std := &standard{varMap: grow(&ws.varMap, len(p.varLo))}

	// Columns for original variables.
	var cols int
	for i := range p.varLo {
		lo, hi := p.varLo[i], p.varHi[i]
		switch {
		case !math.IsInf(lo, -1):
			std.varMap[i] = stdVar{kind: varShift, col: cols, off: lo}
			cols++
		case !math.IsInf(hi, 1):
			// lo = −∞, hi finite: x = hi − y with y ≥ 0.
			std.varMap[i] = stdVar{kind: varMirror, col: cols, off: hi}
			cols++
		default:
			std.varMap[i] = stdVar{kind: varSplit, col: cols, col2: cols + 1}
			cols += 2
		}
	}

	// Row inventory, in emission order: first the variable-bound rows —
	// upper-bound rows y ≤ hi − lo for doubly-bounded shifted variables and
	// y = 0 equality rows for fixed (lo == hi) variables, so phase 1 sees
	// them — then the original constraint rows. Slack/surplus columns are
	// assigned in this same row order.
	rels := grow(&ws.rels, 0)
	for i := range p.varLo {
		lo, hi := p.varLo[i], p.varHi[i]
		if std.varMap[i].kind != varShift || math.IsInf(hi, 1) {
			continue
		}
		if hi > lo {
			rels = append(rels, LE)
		} else if hi == lo {
			rels = append(rels, EQ)
		}
	}
	nBound := len(rels)
	rels = append(rels, p.rels...)
	ws.rels = rels

	m := len(rels)
	nSlack := 0
	for _, rel := range rels {
		if rel == LE || rel == GE {
			nSlack++
		}
	}
	n := cols + nSlack

	a := growZero(&ws.a, m*n)
	b := grow(&ws.b, m)
	slackCol := cols

	// Variable-bound rows.
	row := 0
	for i := range p.varLo {
		lo, hi := p.varLo[i], p.varHi[i]
		if std.varMap[i].kind != varShift || math.IsInf(hi, 1) {
			continue
		}
		switch {
		case hi > lo:
			a[row*n+std.varMap[i].col] = 1
			a[row*n+slackCol] = 1
			slackCol++
			b[row] = hi - lo
			row++
		case hi == lo:
			a[row*n+std.varMap[i].col] = 1
			b[row] = 0
			row++
		}
	}
	if row != nBound {
		return nil, errors.New("lp: internal: bound row miscount")
	}

	// Original constraint rows with substituted variables.
	for r := range p.rows {
		ar := a[row*n : row*n+n]
		rhs := p.rhs[r]
		for _, t := range p.rows[r] {
			v := std.varMap[t.Var]
			switch v.kind {
			case varShift:
				ar[v.col] += t.Coeff
				rhs -= t.Coeff * v.off
			case varMirror:
				ar[v.col] -= t.Coeff
				rhs -= t.Coeff * v.off
			case varSplit:
				ar[v.col] += t.Coeff
				ar[v.col2] -= t.Coeff
			}
		}
		switch p.rels[r] {
		case LE:
			ar[slackCol] = 1
			slackCol++
		case GE:
			ar[slackCol] = -1
			slackCol++
		}
		b[row] = rhs
		row++
	}

	for i := 0; i < m; i++ {
		ai := a[i*n : i*n+n]
		// Row equilibration: scale each row to unit max magnitude. This
		// leaves the solution unchanged but keeps the absolute pivot and
		// feasibility tolerances meaningful when constraint data spans
		// orders of magnitude (e.g. honest values near 1 vs Byzantine
		// values in the hundreds) — without it the simplex can stall or
		// mis-declare optimality on such instances.
		var scale float64
		for _, v := range ai {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
		if scale > 0 && (scale > 4 || scale < 0.25) {
			inv := 1 / scale
			for c := range ai {
				ai[c] *= inv
			}
			b[i] *= inv
		}
		// Normalize to b ≥ 0 for phase 1.
		if b[i] < 0 {
			for c := range ai {
				ai[c] = -ai[c]
			}
			b[i] = -b[i]
		}
	}

	// Standard-form objective (always minimize).
	c := growZero(&ws.c, n)
	sign := 1.0
	if p.objSense == Maximize {
		sign = -1
	}
	for _, t := range p.obj {
		v := std.varMap[t.Var]
		switch v.kind {
		case varShift:
			c[v.col] += sign * t.Coeff
		case varMirror:
			c[v.col] -= sign * t.Coeff
		case varSplit:
			c[v.col] += sign * t.Coeff
			c[v.col2] -= sign * t.Coeff
		}
	}

	std.m, std.n = m, n
	std.a, std.b, std.c = a, b, c
	return std, nil
}

// recover maps a standard-form solution vector back to original variables.
func (s *standard) recover(y []float64) []float64 {
	out := make([]float64, len(s.varMap))
	for i, v := range s.varMap {
		switch v.kind {
		case varShift:
			out[i] = v.off + y[v.col]
		case varMirror:
			out[i] = v.off - y[v.col]
		case varSplit:
			out[i] = y[v.col] - y[v.col2]
		}
	}
	return out
}
