package tverberg

// The vector-space lifted search this package shipped before the Gram-space
// rewrite, kept verbatim as the differential oracle: it materializes the
// k·r lifted vectors of dimension (d+1)(r−1), restarts Wolfe's solver from a
// single point at every Bárány pivot, and forms x and every inner product
// explicitly. Only the dense KKT solve is new (the shared LU kernel it used
// went with its last production caller).

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geometry"
)

// oracleKKTPivotEps is the oracle's singularity threshold: the smallest
// pivot magnitude its KKT elimination accepts.
const oracleKKTPivotEps = 1e-13

type oracleLiftScratch struct {
	flat   []float64
	lifted [][][]float64
	sel    []int
	rows   [][]float64
	bar    []float64
	mn     oracleMinNormScratch
}

// classes returns the lifted class table shaped k×r×dim over the flat
// backing, growing the buffers as needed.
func (ls *oracleLiftScratch) classes(k, r, dim int) [][][]float64 {
	need := k * r * dim
	if cap(ls.flat) < need {
		ls.flat = make([]float64, need)
	}
	flat := ls.flat[:need]
	clear(flat)
	if cap(ls.lifted) < k {
		ls.lifted = make([][][]float64, k)
	}
	lifted := ls.lifted[:k]
	for i := 0; i < k; i++ {
		if cap(lifted[i]) < r {
			lifted[i] = make([][]float64, r)
		}
		lifted[i] = lifted[i][:r]
		for j := 0; j < r; j++ {
			off := (i*r + j) * dim
			lifted[i][j] = flat[off : off+dim]
		}
	}
	ls.lifted = lifted
	return lifted
}

func oracleLift(y *geometry.Multiset, r int) (*Partition, error) {
	if r < 2 {
		return nil, fmt.Errorf("tverberg: Lift needs r ≥ 2 parts, got %d", r)
	}
	d := y.Dim()
	dim := (d + 1) * (r - 1) // lifted dimension N
	k := dim + 1             // number of color classes
	if y.Len() < k {
		return nil, fmt.Errorf("tverberg: Lift needs at least (d+1)(r−1)+1 = %d points, got %d", k, y.Len())
	}

	ls := new(oracleLiftScratch)

	// Lifted classes: lifted[i][j] is v_j ⊗ x̄_i flattened row-major, i.e.
	// block a ∈ [0, r−1) holds v_j[a]·x̄_i. With v_a = e_a (a < r−1) and
	// v_{r−1} = −𝟙, member j < r−1 places x̄_i in block j; member r−1
	// places −x̄_i in every block.
	lifted := ls.classes(k, r, dim)
	bar := growF(&ls.bar, d+1)
	for i := 0; i < k; i++ {
		xi := y.At(i)
		copy(bar, xi)
		bar[d] = 1
		for j := 0; j < r; j++ {
			w := lifted[i][j]
			if j < r-1 {
				copy(w[j*(d+1):(j+1)*(d+1)], bar)
			} else {
				for a := 0; a < r-1; a++ {
					for b := 0; b <= d; b++ {
						w[a*(d+1)+b] = -bar[b]
					}
				}
			}
		}
	}

	// Initial rainbow selection: spread classes across members round-robin.
	if cap(ls.sel) < k {
		ls.sel = make([]int, k)
		ls.rows = make([][]float64, k)
	}
	sel := ls.sel[:k]
	rows := ls.rows[:k]
	for i := range sel {
		sel[i] = i % r
		rows[i] = lifted[i][sel[i]]
	}

	var mn *oracleMinNormResult
	for pivots := 0; ; pivots++ {
		if pivots >= liftMaxPivots {
			return nil, errors.New("tverberg: lifted search exceeded pivot cap")
		}
		var err error
		mn, err = oracleMinNormWith(rows, &ls.mn)
		if err != nil {
			return nil, err
		}
		if mn.norm2 <= liftTol*liftTol {
			break
		}
		// Bárány pivot. A nonzero min-norm point is supported by at most N
		// affinely independent members, so at least one of the N+1 classes
		// carries zero weight; swapping THAT class keeps x inside the new
		// hull. The class averages to the origin while its current member
		// satisfies ⟨s_i, x⟩ ≳ ‖x‖² (Wolfe's termination condition), so its
		// best member has ⟨w, x⟩ ≤ −‖x‖²/(r−1) — the segment [x, w] then
		// dips strictly below ‖x‖, the minimum norm decreases, and no
		// selection ever repeats (the search terminates combinatorially).
		// The margin is relative to ‖x‖²; an absolute one would open a
		// stall window at small norms.
		swapped := false
		for i := 0; i < k && !swapped; i++ {
			if mn.lambda[i] > mnWeightEps {
				continue // support class: swapping it would discard x itself
			}
			bestJ, bestDot := sel[i], dot(lifted[i][sel[i]], mn.x)
			for j := 0; j < r; j++ {
				if j == sel[i] {
					continue
				}
				if dp := dot(lifted[i][j], mn.x); dp < bestDot {
					bestJ, bestDot = j, dp
				}
			}
			if bestJ != sel[i] && bestDot < mn.norm2*(1-1e-9) {
				sel[i] = bestJ
				rows[i] = lifted[i][bestJ]
				swapped = true
			}
		}
		if !swapped {
			return nil, errors.New("tverberg: lifted search stalled above tolerance")
		}
	}

	// Decode: blocks by selected member, Tverberg point as the global
	// weighted mean Σ λ_i x_i (the per-block means all equal it when the
	// lifted combination is zero; block weights are each 1/r).
	blocks := make([][]int, r)
	pt := geometry.NewVector(d)
	var wsum float64
	for i := 0; i < k; i++ {
		blocks[sel[i]] = append(blocks[sel[i]], i)
		if l := mn.lambda[i]; l > 0 {
			xi := y.At(i)
			for c := 0; c < d; c++ {
				pt[c] += l * xi[c]
			}
			wsum += l
		}
	}
	if wsum <= 0 {
		return nil, errors.New("tverberg: lifted search produced no weight mass")
	}
	for c := 0; c < d; c++ {
		pt[c] /= wsum
	}
	for b := range blocks {
		if len(blocks[b]) == 0 {
			// A zero-residual selection gives every block weight 1/r, so
			// an empty block means the residual tolerance was too loose.
			return nil, fmt.Errorf("tverberg: lifted search left block %d empty", b)
		}
	}
	for i := k; i < y.Len(); i++ {
		blocks[r-1] = append(blocks[r-1], i)
	}
	return &Partition{Blocks: blocks, Point: pt}, nil
}

type oracleMinNormResult struct {
	x      []float64 // the minimum-norm point
	norm2  float64   // ‖x‖²
	lambda []float64 // convex weights per input row
}

// oracleMinNormScratch holds every buffer one min-norm solve needs; reusing it
// across solves (the lifted search runs one solve per Bárány pivot) makes
// the solver allocation-free in steady state. The result's x and lambda
// slices alias the scratch and are only valid until the next solve.
type oracleMinNormScratch struct {
	affine  oracleAffineScratch
	corral  []int
	weights []float64
	x       []float64
	lambda  []float64
	res     oracleMinNormResult
}

// oracleMinNorm solves with a private scratch (one-shot callers).
func oracleMinNorm(p [][]float64) (*oracleMinNormResult, error) {
	return oracleMinNormWith(p, &oracleMinNormScratch{})
}

// oracleMinNormPivotEps is oracleMinNorm with the KKT elimination's
// singularity threshold set to eps instead of oracleKKTPivotEps.
func oracleMinNormPivotEps(p [][]float64, eps float64) (*oracleMinNormResult, error) {
	return oracleMinNormWith(p, &oracleMinNormScratch{affine: oracleAffineScratch{pivotEps: eps}})
}

// oracleMinNormWith is oracleMinNorm with caller-managed scratch. The arithmetic is
// identical to a fresh-scratch solve — buffers only change where the values
// live, never the operation order — so results are bit-identical.
func oracleMinNormWith(p [][]float64, sc *oracleMinNormScratch) (*oracleMinNormResult, error) {
	if len(p) == 0 {
		return nil, errors.New("tverberg: min-norm of empty set")
	}
	dim := len(p[0])

	// Start the corral with the smallest-norm row (lowest index on ties).
	start, best := 0, math.Inf(1)
	for i, row := range p {
		if len(row) != dim {
			return nil, fmt.Errorf("tverberg: min-norm row %d has dimension %d, want %d", i, len(row), dim)
		}
		if n2 := dot(row, row); n2 < best {
			start, best = i, n2
		}
	}
	corral := append(sc.corral[:0], start)
	weights := append(sc.weights[:0], 1)
	x := append(sc.x[:0], p[start]...)

	scratch := &sc.affine
	for iter := 0; iter < mnMaxIter; iter++ {
		// Major cycle: the most violating point minimizes ⟨x, p_j⟩.
		x2 := dot(x, x)
		enter, bestDot := -1, x2-mnTol*(1+x2)
		for j, row := range p {
			if d := dot(x, row); d < bestDot {
				enter, bestDot = j, d
			}
		}
		if enter < 0 {
			return sc.result(p, x, corral, weights), nil
		}
		if containsIndex(corral, enter) {
			// The best improving point is already in the corral: x is the
			// convex (not just affine) optimum over it up to tolerance.
			return sc.result(p, x, corral, weights), nil
		}
		corral = append(corral, enter)
		weights = append(weights, 0)

		// Minor cycles: project onto the affine hull of the corral; while
		// the affine weights leave the simplex, step to the boundary and
		// drop the vanished points.
		for {
			affine, err := scratch.affineMinNorm(p, corral)
			if err != nil {
				return nil, err
			}
			neg := false
			for _, w := range affine {
				if w < mnWeightEps {
					neg = true
					break
				}
			}
			if !neg {
				weights = weights[:len(corral)]
				copy(weights, affine)
				break
			}
			// Largest step θ ∈ [0,1) from weights toward affine keeping
			// all weights ≥ 0: θ = min over decreasing weights of
			// w/(w−a).
			theta := 1.0
			for i := range corral {
				w, a := weights[i], affine[i]
				if a < mnWeightEps && w > a {
					if t := w / (w - a); t < theta {
						theta = t
					}
				}
			}
			kept := corral[:0]
			keptW := weights[:0]
			for i, idx := range corral {
				w := weights[i] + theta*(affine[i]-weights[i])
				if w > mnWeightEps {
					kept = append(kept, idx)
					keptW = append(keptW, w)
				}
			}
			if len(kept) == 0 {
				return nil, errors.New("tverberg: min-norm corral collapsed")
			}
			corral = kept
			weights = normalize(keptW)
		}

		// Recompute x from the new corral weights.
		clearF(x)
		for i, idx := range corral {
			axpy(x, weights[i], p[idx])
		}
	}
	return nil, errors.New("tverberg: min-norm iteration cap exceeded")
}

// oracleAffineScratch holds the dense solve buffers for affineMinNorm.
type oracleAffineScratch struct {
	m        []float64
	rhs      []float64
	pivotEps float64 // the singularity threshold; 0 means oracleKKTPivotEps
}

// affineMinNorm returns the weights α (Σα = 1, unconstrained sign) of the
// minimum-norm point of the affine hull of the selected rows, from the KKT
// system [[0 1ᵀ][1 G]]·[μ α]ᵀ = [1 0]ᵀ with G the Gram matrix.
func (s *oracleAffineScratch) affineMinNorm(p [][]float64, sel []int) ([]float64, error) {
	k := len(sel)
	n := k + 1
	m := growF(&s.m, n*n)
	rhs := growF(&s.rhs, n)
	clearF(m)
	clearF(rhs)
	rhs[0] = 1
	for i := 0; i < k; i++ {
		m[0*n+1+i] = 1
		m[(1+i)*n+0] = 1
		for j := i; j < k; j++ {
			g := dot(p[sel[i]], p[sel[j]])
			m[(1+i)*n+1+j] = g
			m[(1+j)*n+1+i] = g
		}
	}
	eps := s.pivotEps
	if eps == 0 {
		eps = oracleKKTPivotEps
	}
	if !oracleSolveDense(m, rhs, n, eps) {
		return nil, errors.New("tverberg: affine min-norm system singular")
	}
	return rhs[1 : 1+k], nil
}

// result assembles the final point and full-length weight vector into the
// scratch-owned buffers (valid until the next solve on this scratch) and
// hands the grown working slices back to the scratch for reuse.
func (sc *oracleMinNormScratch) result(p [][]float64, x []float64, corral []int, weights []float64) *oracleMinNormResult {
	sc.corral, sc.weights, sc.x = corral, weights, x
	lambda := growF(&sc.lambda, len(p))
	clearF(lambda)
	for i, idx := range corral {
		lambda[idx] = weights[i]
	}
	sc.res = oracleMinNormResult{x: x, norm2: dot(x, x), lambda: lambda}
	return &sc.res
}

// oracleSolveDense solves the n×n row-major system m·x = rhs in place by
// Gaussian elimination with partial pivoting (rhs becomes x); false means
// no pivot above eps.
func oracleSolveDense(m, rhs []float64, n int, eps float64) bool {
	for col := 0; col < n; col++ {
		p, best := -1, eps
		for i := col; i < n; i++ {
			if v := math.Abs(m[i*n+col]); v > best {
				p, best = i, v
			}
		}
		if p < 0 {
			return false
		}
		if p != col {
			for j := 0; j < n; j++ {
				m[col*n+j], m[p*n+j] = m[p*n+j], m[col*n+j]
			}
			rhs[col], rhs[p] = rhs[p], rhs[col]
		}
		for i := col + 1; i < n; i++ {
			f := m[i*n+col] / m[col*n+col]
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m[i*n+j] -= f * m[col*n+j]
			}
			rhs[i] -= f * rhs[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= m[i*n+j] * rhs[j]
		}
		rhs[i] = s / m[i*n+i]
	}
	return true
}

func axpy(dst []float64, w float64, src []float64) {
	for i := range dst {
		dst[i] += w * src[i]
	}
}

func clearF(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
