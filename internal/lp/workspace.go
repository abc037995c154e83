package lp

import "sync"

// Workspace holds the scratch buffers of one solver instance: the flat
// tableau slab, the standard-form matrices, and the basis bookkeeping. A
// Workspace may be reused across any number of solves (SolveWith), which
// makes repeated solves allocation-free once the buffers have grown to the
// problem size; it must not be used from multiple goroutines concurrently.
//
// The zero value is ready to use.
type Workspace struct {
	// simplex buffers
	tab   []float64
	basis []int
	x     []float64
	cvec  []float64 // per-phase cost vector for re-pricing

	// hot-chain buffers (see warm.go)
	tab2   []float64 // alternate slab for Hot.AppendLE re-layouts
	rowBuf []float64 // appended-row construction

	// revised-core buffers (see revised.go)
	xB      []float64 // basic values
	lu      []float64 // basis LU factorization (luDim×luDim)
	luPiv   []int     // LU row interchanges
	lPtr    []int     // sparse factor views: L columns, U rows/columns,
	lIdx    []int     // and the U diagonal, extracted at refactorization
	lVal    []float64 // (see rev.compressFactors)
	uColPtr []int
	uColIdx []int
	uColVal []float64
	uRowPtr []int
	uRowIdx []int
	uRowVal []float64
	uDiag   []float64
	rowID   []int     // physical row identities during factorization (repair)
	ops     []revOp   // update file: eta and bordered-row operators
	opBuf   []float64 // operator payloads (eta values, border rows)
	opIdx   []int     // sparse eta nonzero indices
	inBasis []bool    // per-column basic marks
	y       []float64 // simplex multipliers (BTRAN result)
	col     []float64 // column gather scratch (refactorization)
	col2    []float64 // FTRAN'd entering column
	red     []float64 // freshly priced reduced costs
	rowBuf2 []float64 // appended-row basis coefficients
	a2      []float64 // alternate standard-form slab for row appends
	cscPtr  []int     // CSC column pointers of the structural matrix
	cscRow  []int     // CSC row indices
	cscVal  []float64 // CSC values
	cscNext []int     // CSC fill cursors (buildCSC scratch)

	// standardization buffers
	a      []float64
	b      []float64
	c      []float64
	varMap []stdVar
	rels   []Rel
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool backs Problem.Solve so that callers who do not manage a Workspace
// themselves still reuse buffers across solves.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// grow resizes *buf to n elements, reallocating only when capacity is
// insufficient. Contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growZero is grow with the returned slice cleared.
func growZero(buf *[]float64, n int) []float64 {
	s := grow(buf, n)
	clear(s)
	return s
}
