package tverberg

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geometry"
)

// liftScratch pools the lifted search's working set so a steady-state Lift
// allocates only the Partition it returns. Every buffer is fully rewritten
// before it is read — in particular the Wolfe corral is restarted per call —
// so a result never depends on what the scratch solved before.
type liftScratch struct {
	lo     []float64         // Lift's own translation (coordinate-wise minimum)
	aug    []float64         // k×(d+1): the augmented points x̄_i = (x_i, 1), read once
	pts    []geometry.Vector // the x_i, as views into aug
	g      []float64         // k×k: ⟨x̄_i, x̄_i'⟩
	gram   []float64         // k×k: lifted Gram matrix of the current selection
	sel    []int             // the rainbow selection j(i)
	sizes  []int             // decode's per-block member counts
	lambda []float64         // per-class convex weights of the min-norm point
	sums   []float64         // r×(d+1): per-block weighted sums Σ_{j(i)=b} λ_i·x̄_i
	x      []float64         // r×(d+1): the lifted min-norm point, one row per member
	mn     wolfe
}

var liftPool = sync.Pool{New: func() any { return new(liftScratch) }}

// liftTol is the residual norm at which the lifted colorful-Carathéodory
// search accepts a selection as containing the origin. Intermediate
// selections have min-norms bounded well away from zero, and the final one
// contains the origin exactly, so the observed residual collapses to
// floating-point noise at termination; 1e-7 separates the two regimes with
// orders of magnitude to spare.
const liftTol = 1e-7

// liftMaxPivots caps Bárány pivot steps. Each step strictly shrinks the
// minimum norm, so the search terminates on its own; the cap is a guard
// against numerical stagnation on adversarially degenerate inputs.
const liftMaxPivots = 2000

// CertTol is the residual (see Partition.Residual) at or below which a
// lifted partition's own weights count as its proof: every block then holds
// an explicit convex combination within CertTol of the point in every
// coordinate, which is half of the 1e-6 the safe-area ladder's LP
// verification enforces — so a certified partition passes Verify at that
// tolerance with a factor of two to spare and the LPs need not run. A
// search that stalls or hits its pivot cap is still returned when its
// current selection is certified.
const CertTol = 5e-7

// memberDot is ⟨v_a, v_b⟩ for Sarkaria's vectors v_0 … v_{r−2} = e_j and
// v_{r−1} = −𝟙 in R^{r−1}: the constant table {1, 0, −1, r−1}.
func memberDot(a, b, r int) float64 {
	switch last := r - 1; {
	case a == last && b == last:
		return float64(last)
	case a == last || b == last:
		return -1
	case a == b:
		return 1
	default:
		return 0
	}
}

// Lift computes a Tverberg partition of y into r parts by Sarkaria's tensor
// construction — polynomial where Search is exponential, and for any r
// where Radon is limited to r = 2.
//
// The first k = N+1 members of y (N = (d+1)(r−1), the Tverberg number minus
// one) are lifted to N-dimensional color classes C_i = {v_j ⊗ x̄_i : j < r},
// where x̄_i = (x_i, 1) and v_0 … v_{r−1} ∈ R^{r−1} sum to zero (the
// standard basis plus −1). Every class averages to the origin, so by the
// colorful Carathéodory theorem some rainbow selection j(i) captures 0 in
// its convex hull; Bárány's pivoting scheme finds one: repeatedly take the
// minimum-norm point x of the current selection's hull (Wolfe's algorithm)
// and, while ‖x‖ > 0, swap a zero-weight class to its member with the most
// negative inner product against x, which strictly decreases the norm.
// The selection's zero combination Σ λ_i·v_{j(i)} ⊗ x̄_i = 0 forces the
// per-block weighted means Σ_{j(i)=j} λ_i x̄_i to coincide across blocks —
// that common value is a Tverberg point of the blocks {i : j(i) = j}.
//
// The k·r lifted vectors are never built. Their inner products factor as
// ⟨v_j ⊗ x̄_i, v_j' ⊗ x̄_i'⟩ = ⟨v_j, v_j'⟩·⟨x̄_i, x̄_i'⟩, so one k×k Gram
// matrix of the augmented points, computed once, and the constant table
// memberDot give Wolfe's solver everything it reads; and x itself, an
// (r−1)×(d+1) matrix with rows S_a − S_{r−1} over the per-block weighted
// sums S_b = Σ_{j(i)=b} λ_i x̄_i, is d+1 numbers per block — which is where
// the search reads ‖x‖ and the pivot's inner products, to full relative
// precision however small ‖x‖ has become. The Wolfe corral carries over
// from one pivot to the next (see wolfe).
//
// Members beyond the first k are appended to the last block, which only
// grows its hull (exactly as RadonOfFirst does for r = 2). The search runs
// on coordinates translated to the coordinate-wise minimum of the first k
// members (a Tverberg partition is translation-invariant; the Gram entries
// are not, and lose their low bits to a large offset). The computation is
// deterministic: all ties break toward the lowest index. A lifted member
// with a NaN or infinite coordinate is an error, reported before the search
// starts.
//
// The returned partition carries its convex Weights and their Residual; a
// caller accepts it on Residual ≤ CertTol or re-checks it geometrically
// (Verify).
func Lift(y *geometry.Multiset, r int) (*Partition, error) {
	k, err := liftSize(y, r)
	if err != nil {
		return nil, err
	}
	ls := liftPool.Get().(*liftScratch)
	defer liftPool.Put(ls)
	lo := geometry.Vector(growF(&ls.lo, y.Dim()))
	copy(lo, y.At(0))
	for i := 1; i < k; i++ {
		for c, v := range y.At(i) {
			if v < lo[c] {
				lo[c] = v
			}
		}
	}
	part, err := ls.lift(y, r, k, lo, 1)
	if err != nil {
		return nil, err
	}
	for c := range part.Point {
		part.Point[c] += lo[c]
	}
	return part, nil
}

// LiftAffine is Lift on the affine image x ↦ (x − lo)·inv of y, applied as
// the members are read instead of materialized; Point, Weights and Residual
// are in image coordinates. It is how the safe-area ladder solves in its
// normalized frame without building the normalized multiset.
func LiftAffine(y *geometry.Multiset, r int, lo geometry.Vector, inv float64) (*Partition, error) {
	k, err := liftSize(y, r)
	if err != nil {
		return nil, err
	}
	if lo.Dim() != y.Dim() {
		return nil, fmt.Errorf("tverberg: offset dimension %d, multiset dimension %d", lo.Dim(), y.Dim())
	}
	ls := liftPool.Get().(*liftScratch)
	defer liftPool.Put(ls)
	return ls.lift(y, r, k, lo, inv)
}

// liftSize validates (y, r) and returns the number of color classes
// k = (d+1)(r−1)+1.
func liftSize(y *geometry.Multiset, r int) (int, error) {
	if r < 2 {
		return 0, fmt.Errorf("tverberg: Lift needs r ≥ 2 parts, got %d", r)
	}
	k := (y.Dim()+1)*(r-1) + 1
	if y.Len() < k {
		return 0, fmt.Errorf("tverberg: Lift needs at least (d+1)(r−1)+1 = %d points, got %d", k, y.Len())
	}
	return k, nil
}

// lift is the search proper on the first k members of y mapped through
// (x − lo)·inv.
func (ls *liftScratch) lift(y *geometry.Multiset, r, k int, lo geometry.Vector, inv float64) (*Partition, error) {
	d := y.Dim()
	if err := ls.read(y, k, d, lo, inv); err != nil {
		return nil, err
	}

	// Initial rainbow selection: spread classes across members round-robin.
	sel := growI(&ls.sel, k)
	for i := range sel {
		sel[i] = i % r
	}
	g := ls.g[:k*k]
	gram := growF(&ls.gram, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			gram[i*k+j] = memberDot(sel[i], sel[j], r) * g[i*k+j]
		}
	}
	lambda := growF(&ls.lambda, k)
	mn := &ls.mn
	mn.start(gram, k)

	for pivots := 0; ; pivots++ {
		if pivots >= liftMaxPivots {
			return ls.uncertain(y, r, k, "exceeded pivot cap")
		}
		// A solve that runs out of major cycles still holds a convex
		// combination, and on degenerate inputs usually the optimum — it
		// polishes a point within 1e-11 of the origin against mnTol
		// forever. ‖x‖ decides whether that is an answer.
		serr := mn.solve(gram, k)
		if serr != nil && !errors.Is(serr, errMinNormCap) {
			return nil, serr
		}
		clear(lambda)
		for ci, c := range mn.corral {
			lambda[c] = mn.weights[ci]
		}
		norm2 := ls.liftedPoint(r, k, d)
		if norm2 <= liftTol*liftTol {
			return ls.decode(y, r, k)
		}
		if serr != nil {
			return ls.uncertain(y, r, k, "hit the min-norm iteration cap")
		}
		// Bárány pivot. A nonzero min-norm point is supported by at most N
		// affinely independent members, so at least one of the N+1 classes
		// lies outside the corral; swapping THAT class keeps x inside the
		// new hull — and the corral a corral, which is the warm start. The
		// class averages to the origin while its current member satisfies
		// ⟨s_i, x⟩ ≳ ‖x‖² (Wolfe's termination condition), so its best
		// member has ⟨w, x⟩ ≤ −‖x‖²/(r−1) — the segment [x, w] then dips
		// strictly below ‖x‖, the minimum norm decreases, and no selection
		// ever repeats (the search terminates combinatorially). The margin
		// is relative to ‖x‖²; an absolute one would open a stall window
		// at small norms.
		swapped := false
		for i := 0; i < k && !swapped; i++ {
			if lambda[i] != 0 {
				continue // support class: swapping it would discard x itself
			}
			xi := ls.aug[i*(d+1) : (i+1)*(d+1)]
			bestJ, bestDot := sel[i], dot(ls.x[sel[i]*(d+1):(sel[i]+1)*(d+1)], xi)
			for j := 0; j < r; j++ {
				if j == sel[i] {
					continue
				}
				if dp := dot(ls.x[j*(d+1):(j+1)*(d+1)], xi); dp < bestDot {
					bestJ, bestDot = j, dp
				}
			}
			if bestJ != sel[i] && bestDot < norm2*(1-1e-9) {
				sel[i] = bestJ
				for j := 0; j < k; j++ {
					v := memberDot(bestJ, sel[j], r) * g[i*k+j]
					gram[i*k+j] = v
					gram[j*k+i] = v
				}
				swapped = true
			}
		}
		if !swapped {
			return ls.uncertain(y, r, k, "stalled above tolerance")
		}
	}
}

// errNonFinite reports a lift input with a NaN or infinite coordinate, or
// one whose image overflows the Gram matrix: no partition of it is
// meaningful, so the search does not start.
var errNonFinite = errors.New("tverberg: lift input is not finite")

// read writes the augmented image points ((x_i − lo)·inv, 1) of y's first k
// members into scratch — the one pass over the inputs — and their Gram
// matrix. It fails with errNonFinite when a member's squared image norm is
// not finite: a NaN or ±Inf coordinate (of the member or of lo) makes it so,
// and so does an image that overflows.
func (ls *liftScratch) read(y *geometry.Multiset, k, d int, lo geometry.Vector, inv float64) error {
	aug := growF(&ls.aug, k*(d+1))
	if cap(ls.pts) < k {
		ls.pts = make([]geometry.Vector, k)
	}
	ls.pts = ls.pts[:k]
	for i := 0; i < k; i++ {
		row := aug[i*(d+1) : (i+1)*(d+1)]
		for c, v := range y.At(i) {
			row[c] = (v - lo[c]) * inv
		}
		row[d] = 1
		ls.pts[i] = row[:d:d]
	}
	g := growF(&ls.g, k*k)
	for i := 0; i < k; i++ {
		xi := aug[i*(d+1) : (i+1)*(d+1)]
		for j := i; j < k; j++ {
			v := dot(xi, aug[j*(d+1):(j+1)*(d+1)])
			g[i*k+j] = v
			g[j*k+i] = v
		}
		if n2 := g[i*k+i]; math.IsNaN(n2) || math.IsInf(n2, 0) {
			return fmt.Errorf("%w: member %d", errNonFinite, i)
		}
	}
	return nil
}

// liftedPoint forms the min-norm point x = Σ λ_i·v_{j(i)} ⊗ x̄_i of the
// current selection from the per-block weighted sums and returns ‖x‖².
// ls.x holds one (d+1)-row per member j such that ⟨v_j ⊗ x̄, x⟩ is the
// row's inner product with x̄: S_j − S_{r−1} for j < r−1 (the rows of x
// itself) and minus their sum for j = r−1.
func (ls *liftScratch) liftedPoint(r, k, d int) float64 {
	w := d + 1
	sums := growF(&ls.sums, r*w)
	clear(sums)
	for i := 0; i < k; i++ {
		if l := ls.lambda[i]; l != 0 {
			sb := sums[ls.sel[i]*w : (ls.sel[i]+1)*w]
			for c, v := range ls.aug[i*w : (i+1)*w] {
				sb[c] += l * v
			}
		}
	}
	x := growF(&ls.x, r*w)
	last := x[(r-1)*w : r*w]
	clear(last)
	var norm2 float64
	for a := 0; a < r-1; a++ {
		for c := 0; c < w; c++ {
			v := sums[a*w+c] - sums[(r-1)*w+c]
			x[a*w+c] = v
			last[c] -= v
			norm2 += v * v
		}
	}
	return norm2
}

// uncertain ends a search that did not converge: the current selection is
// decoded anyway and returned iff its own weights certify it — the lifted
// residual only had to be small enough for the block means to agree to
// CertTol, and on cluster-plus-outlier inputs it is, just above liftTol.
func (ls *liftScratch) uncertain(y *geometry.Multiset, r, k int, what string) (*Partition, error) {
	if part, err := ls.decode(y, r, k); err == nil && part.Residual <= CertTol {
		return part, nil
	}
	return nil, errors.New("tverberg: lifted search " + what)
}

// decode turns the current selection and weights into a Partition: blocks
// by selected member, and the Tverberg point as the global weighted mean
// Σ λ_i x_i (the per-block means all equal it when the lifted combination
// is zero; block weights are each 1/r).
func (ls *liftScratch) decode(y *geometry.Multiset, r, k int) (*Partition, error) {
	d, n := y.Dim(), y.Len()
	sizes := growI(&ls.sizes, r)
	clear(sizes)
	for _, j := range ls.sel[:k] {
		sizes[j]++
	}
	sizes[r-1] += n - k
	flat := make([]int, n) // one backing array for all blocks
	blocks := make([][]int, r)
	for b, off := 0, 0; b < r; b++ {
		if sizes[b] == 0 {
			// A zero-residual selection gives every block weight 1/r, so
			// an empty block means the residual tolerance was too loose.
			return nil, fmt.Errorf("tverberg: lifted search left block %d empty", b)
		}
		blocks[b] = flat[off : off : off+sizes[b]]
		off += sizes[b]
	}
	for i := 0; i < n; i++ {
		b := r - 1
		if i < k {
			b = ls.sel[i]
		}
		blocks[b] = append(blocks[b], i)
	}
	// The point gets its own allocation: callers keep it (the Γ-point memo
	// tables hold thousands) long after the partition is garbage.
	pt, weights := geometry.NewVector(d), make([]float64, n)
	var wsum float64
	for b := 0; b < r; b++ {
		sb := ls.sums[b*(d+1) : (b+1)*(d+1)]
		for c := range pt {
			pt[c] += sb[c]
		}
		wsum += sb[d]
	}
	if wsum <= 0 {
		return nil, errors.New("tverberg: lifted search produced no weight mass")
	}
	for c := range pt {
		pt[c] /= wsum
	}
	copy(weights, ls.lambda[:k])
	part := &Partition{Blocks: blocks, Point: pt, Weights: weights}
	part.Residual = residual(ls.pts, part)
	return part, nil
}

// Residual returns the certificate residual of part over y: the largest
// coordinate distance between part.Point and any block's weighted mean
// Σ w_i·y_i / Σ w_i under part.Weights. Each mean is an explicit point of
// its block's hull, so Residual ≤ tol proves — without an LP — what
// Verify(y, part, tol) checks. It is +Inf when the weights prove nothing:
// missing, negative or non-finite weights, an empty or out-of-range block,
// or a block with no positive mass.
func Residual(y *geometry.Multiset, part *Partition) float64 {
	if part == nil || len(part.Weights) != y.Len() || part.Point.Dim() != y.Dim() {
		return math.Inf(1)
	}
	return residual(y.Points(), part)
}

// residual is Residual over a point slice that may stop short of the
// zero-weight tail (Lift's scratch holds only the k lifted members).
func residual(pts []geometry.Vector, part *Partition) float64 {
	var worst float64
	for _, blk := range part.Blocks {
		var mass float64
		for _, idx := range blk {
			if idx < 0 || idx >= len(part.Weights) {
				return math.Inf(1)
			}
			w := part.Weights[idx]
			if !(w >= 0) || math.IsInf(w, 1) || (w > 0 && idx >= len(pts)) {
				return math.Inf(1)
			}
			mass += w
		}
		if !(mass > 0) {
			return math.Inf(1)
		}
		for c, z := range part.Point {
			var s float64
			for _, idx := range blk {
				if w := part.Weights[idx]; w > 0 {
					s += w * pts[idx][c]
				}
			}
			diff := math.Abs(s/mass - z)
			if math.IsNaN(diff) {
				return math.Inf(1)
			}
			if diff > worst {
				worst = diff
			}
		}
	}
	return worst
}
