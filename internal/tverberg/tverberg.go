// Package tverberg computes Tverberg partitions and Tverberg points.
//
// Tverberg's theorem (paper Theorem 2): every multiset of at least
// (d+1)f+1 points in R^d admits a partition into f+1 non-empty parts whose
// convex hulls share a common point. The common points are Tverberg points;
// the proof of Lemma 1 shows every Tverberg point lies in the safe area
// Γ(Y), which is how the consensus algorithms use this package.
//
// Two constructions are provided:
//
//   - Radon: the f=1 case. Any d+2 points admit a partition into two parts
//     with intersecting hulls, computable in O(d³) time from a null vector
//     of the affine-dependence system (Radon's theorem).
//   - Search: exhaustive enumeration of partitions for general f, feasible
//     for small multisets; used for validation and to reproduce the paper's
//     Figure 1 (the heptagon example).
package tverberg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/hull"
)

// Partition is a Tverberg partition of a point multiset: Blocks holds
// member indices of each part, and Point is a common point of the parts'
// convex hulls (a Tverberg point).
//
// Lift additionally reports how it knows: Weights holds one non-negative
// multiplier per member (zero outside the lifted prefix) under which every
// block's weighted mean is Point, and Residual is how far from exactly
// that they are (see the Residual function), in the coordinates the search
// ran in. Radon and Search leave both zero.
type Partition struct {
	Blocks   [][]int
	Point    geometry.Vector
	Weights  []float64
	Residual float64
}

// NumBlocks returns the number of parts.
func (p *Partition) NumBlocks() int { return len(p.Blocks) }

// maxSearchSize caps the exhaustive partition search; Stirling numbers grow
// too fast beyond this.
const maxSearchSize = 14

// Radon computes a Radon partition of exactly d+2 points in R^d: two
// disjoint non-empty index sets whose convex hulls intersect, plus a common
// point. The computation is deterministic.
func Radon(points []geometry.Vector) (*Partition, error) {
	if len(points) == 0 {
		return nil, errors.New("tverberg: no points")
	}
	d := points[0].Dim()
	if len(points) != d+2 {
		return nil, fmt.Errorf("tverberg: Radon needs exactly d+2 = %d points, got %d", d+2, len(points))
	}
	for i, p := range points {
		if p.Dim() != d {
			return nil, fmt.Errorf("tverberg: point %d has dimension %d, want %d", i, p.Dim(), d)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("tverberg: point %d is not finite", i)
		}
	}

	// Find a non-trivial solution of Σλᵢpᵢ = 0, Σλᵢ = 0: a null vector of
	// the (d+1) × (d+2) matrix whose first d rows are coordinates and whose
	// last row is all ones.
	m := d + 1
	n := d + 2
	a := make([][]float64, m)
	for r := 0; r < d; r++ {
		a[r] = make([]float64, n)
		for c := 0; c < n; c++ {
			a[r][c] = points[c][r]
		}
	}
	a[d] = make([]float64, n)
	for c := 0; c < n; c++ {
		a[d][c] = 1
	}
	lambda, err := nullVector(a)
	if err != nil {
		return nil, fmt.Errorf("tverberg: %w", err)
	}

	// Split by sign. Σλ = 0 and λ ≠ 0 imply both signs occur.
	var pos, neg []int
	var posSum float64
	for i, l := range lambda {
		switch {
		case l > 0:
			pos = append(pos, i)
			posSum += l
		case l < 0:
			neg = append(neg, i)
		default:
			// λᵢ = 0: the point is unconstrained; attach to the negative
			// side so the positive side stays a minimal witness.
			neg = append(neg, i)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return nil, errors.New("tverberg: degenerate null vector (single-signed)")
	}

	// Radon point: Σ_{λᵢ>0} (λᵢ/posSum)·pᵢ.
	pt := geometry.NewVector(d)
	for _, i := range pos {
		w := lambda[i] / posSum
		for l := 0; l < d; l++ {
			pt[l] += w * points[i][l]
		}
	}
	return &Partition{Blocks: [][]int{pos, neg}, Point: pt}, nil
}

// RadonOfFirst computes a Tverberg partition of Y into 2 parts (the f=1
// case) for any |Y| ≥ d+2: it Radon-partitions the first d+2 members and
// attaches the remaining members to the second block, which can only grow
// its hull. The Tverberg point is the Radon point of the prefix.
func RadonOfFirst(y *geometry.Multiset) (*Partition, error) {
	d := y.Dim()
	if y.Len() < d+2 {
		return nil, fmt.Errorf("tverberg: need at least d+2 = %d points, got %d", d+2, y.Len())
	}
	prefix := make([]geometry.Vector, d+2)
	for i := 0; i < d+2; i++ {
		prefix[i] = y.At(i)
	}
	part, err := Radon(prefix)
	if err != nil {
		return nil, err
	}
	for i := d + 2; i < y.Len(); i++ {
		part.Blocks[1] = append(part.Blocks[1], i)
	}
	return part, nil
}

// Search exhaustively looks for a Tverberg partition of y into the given
// number of parts. It returns (partition, true, nil) on success and
// (nil, false, nil) if no partition of y into `parts` hull-intersecting
// blocks exists. Only small multisets are accepted (≤ 14 members).
func Search(y *geometry.Multiset, parts int) (*Partition, bool, error) {
	if parts < 1 {
		return nil, false, fmt.Errorf("tverberg: invalid part count %d", parts)
	}
	if y.Len() > maxSearchSize {
		return nil, false, fmt.Errorf("tverberg: search limited to %d points, got %d", maxSearchSize, y.Len())
	}
	if parts > y.Len() {
		return nil, false, nil
	}

	var (
		found  *Partition
		ferr   error
		groups = make([][]geometry.Vector, parts)
	)
	err := combin.Partitions(y.Len(), parts, func(blocks [][]int) bool {
		for g, blk := range blocks {
			pts := make([]geometry.Vector, len(blk))
			for i, idx := range blk {
				pts[i] = y.At(idx)
			}
			groups[g] = pts
		}
		pt, ok, err := hull.CommonPoint(groups)
		if err != nil {
			ferr = err
			return false
		}
		if !ok {
			return true // keep searching
		}
		cp := make([][]int, len(blocks))
		for g, blk := range blocks {
			cp[g] = append([]int(nil), blk...)
		}
		found = &Partition{Blocks: cp, Point: pt}
		return false
	})
	if err != nil {
		return nil, false, err
	}
	if ferr != nil {
		return nil, false, ferr
	}
	if found == nil {
		return nil, false, nil
	}
	return found, true, nil
}

// Verify checks that part is a valid Tverberg partition of y: the blocks
// are non-empty, disjoint, cover all members, and part.Point lies in every
// block's convex hull within tol (hull.DefaultTol if tol ≤ 0).
func Verify(y *geometry.Multiset, part *Partition, tol float64) error {
	if part == nil {
		return errors.New("tverberg: nil partition")
	}
	seen := make([]bool, y.Len())
	count := 0
	for b, blk := range part.Blocks {
		if len(blk) == 0 {
			return fmt.Errorf("tverberg: block %d is empty", b)
		}
		for _, idx := range blk {
			if idx < 0 || idx >= y.Len() {
				return fmt.Errorf("tverberg: block %d has out-of-range index %d", b, idx)
			}
			if seen[idx] {
				return fmt.Errorf("tverberg: index %d appears in more than one block", idx)
			}
			seen[idx] = true
			count++
		}
	}
	if count != y.Len() {
		return fmt.Errorf("tverberg: blocks cover %d of %d members", count, y.Len())
	}
	if part.Point.Dim() != y.Dim() {
		return fmt.Errorf("tverberg: point dimension %d, multiset dimension %d", part.Point.Dim(), y.Dim())
	}
	for b, blk := range part.Blocks {
		pts := make([]geometry.Vector, len(blk))
		for i, idx := range blk {
			pts[i] = y.At(idx)
		}
		ok, err := hull.Contains(pts, part.Point, tol)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tverberg: point %v outside hull of block %d", part.Point, b)
		}
	}
	return nil
}

// nullVector returns a non-trivial solution x of Ax = 0 for an m×n matrix
// with m < n, via Gaussian elimination with partial pivoting.
func nullVector(a [][]float64) ([]float64, error) {
	m := len(a)
	if m == 0 {
		return nil, errors.New("null vector of empty matrix")
	}
	n := len(a[0])
	if m >= n {
		return nil, fmt.Errorf("matrix %dx%d has no guaranteed null space", m, n)
	}
	// Work on a copy.
	w := make([][]float64, m)
	for i := range a {
		w[i] = append([]float64(nil), a[i]...)
	}

	const eps = 1e-12
	pivotCol := make([]int, 0, m)
	row := 0
	for col := 0; col < n && row < m; col++ {
		// Partial pivoting.
		best, bestAbs := -1, eps
		for r := row; r < m; r++ {
			if abs := math.Abs(w[r][col]); abs > bestAbs {
				best, bestAbs = r, abs
			}
		}
		if best < 0 {
			continue // free column
		}
		w[row], w[best] = w[best], w[row]
		inv := 1 / w[row][col]
		for c := col; c < n; c++ {
			w[row][c] *= inv
		}
		for r := 0; r < m; r++ {
			if r == row {
				continue
			}
			factor := w[r][col]
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				w[r][c] -= factor * w[row][c]
			}
		}
		pivotCol = append(pivotCol, col)
		row++
	}

	// First free column gets value 1; back-substitute pivot columns.
	isPivot := make([]bool, n)
	for _, c := range pivotCol {
		isPivot[c] = true
	}
	free := -1
	for c := 0; c < n; c++ {
		if !isPivot[c] {
			free = c
			break
		}
	}
	if free < 0 {
		return nil, errors.New("no free column: matrix has full column rank")
	}
	x := make([]float64, n)
	x[free] = 1
	for r, c := range pivotCol {
		// Row r reads x[c] + Σ_{c' free or later pivot} w[r][c']·x[c'] = 0.
		var s float64
		for cc := 0; cc < n; cc++ {
			if cc != c {
				s += w[r][cc] * x[cc]
			}
		}
		x[c] = -s
	}
	return x, nil
}
