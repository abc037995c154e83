package tverberg

import (
	"errors"
	"math"
)

// wolfe solves the minimum-norm-point problem min ‖x‖ over x ∈ conv(P) with
// Wolfe's algorithm (Wolfe 1976), knowing the points only through their Gram
// matrix ⟨p_i, p_j⟩. It maintains a corral — an affinely independent subset
// whose affine minimum-norm point has strictly positive convex weights — and
// alternates adding the most violating point (major cycle) with projecting
// back onto the convex hull (minor cycles). The point itself is never
// formed: x = Σ_c w_c·p_c lives in the corral weights, so ⟨x, p_j⟩ is
// Σ_c w_c·⟨p_c, p_j⟩ and the affine projection reads only Gram entries.
//
// The corral and its weights persist between solves. That is the lifted
// search's warm start: a Bárány pivot replaces a point OUTSIDE the corral,
// so the previous optimum stays a feasible corral of the new point set and
// the next solve resumes from it instead of from a single point.
//
// The computation is deterministic: ties in point selection break toward
// the lowest index, and start discards whatever an earlier call left.
type wolfe struct {
	corral  []int     // indices of the corral members
	weights []float64 // their convex weights, parallel to corral
	xp      []float64 // ⟨x, p_j⟩ for every point, as of the last major cycle
	kkt     []float64 // the affine projection's augmented system, eliminated in place
	affine  []float64 // its solution
}

const (
	// mnTol bounds the duality gap ⟨x, x − p_j⟩ accepted at termination.
	mnTol = 1e-12
	// mnWeightEps is the threshold below which an affine weight counts as
	// leaving the corral during a minor cycle.
	mnWeightEps = 1e-12
	// mnMaxIter caps major cycles; Wolfe terminates finitely, so hitting
	// the cap indicates numerical trouble on a degenerate instance.
	mnMaxIter = 1000
	// kktPivotEps is the singularity threshold of the affine projection's
	// elimination: the systems are Gram matrices of lifted points, not
	// row-equilibrated O(1) data, and a wider threshold would push solvable
	// corrals onto the expensive fallback ladder.
	kktPivotEps = 1e-13
)

// start resets the corral to the single point of smallest norm (lowest
// index on ties). gram is the k×k row-major Gram matrix.
func (w *wolfe) start(gram []float64, k int) {
	first, best := 0, math.Inf(1)
	for i := 0; i < k; i++ {
		if n2 := gram[i*k+i]; n2 < best {
			first, best = i, n2
		}
	}
	w.corral = append(w.corral[:0], first)
	w.weights = append(w.weights[:0], 1)
}

// solve runs major cycles from the current corral until no point improves
// on x. On return corral/weights describe the minimum-norm point; an error
// other than errMinNormCap leaves them in an unspecified (but in-bounds)
// state.
func (w *wolfe) solve(gram []float64, k int) error {
	xp := growF(&w.xp, k)
	for iter := 0; iter < mnMaxIter; iter++ {
		// Major cycle: the most violating point minimizes ⟨x, p_j⟩.
		clear(xp)
		for ci, c := range w.corral {
			wc := w.weights[ci]
			for j, g := range gram[c*k : c*k+k] {
				xp[j] += wc * g
			}
		}
		var x2 float64
		for ci, c := range w.corral {
			x2 += w.weights[ci] * xp[c]
		}
		enter, bestDot := -1, x2-mnTol*(1+x2)
		for j, d := range xp {
			if d < bestDot {
				enter, bestDot = j, d
			}
		}
		if enter < 0 || containsIndex(w.corral, enter) {
			// No improving point, or the best one is already in the
			// corral: x is the convex (not just affine) optimum up to
			// tolerance.
			return nil
		}
		w.corral = append(w.corral, enter)
		w.weights = append(w.weights, 0)

		// Minor cycles: project onto the affine hull of the corral; while
		// the affine weights leave the simplex, step to the boundary and
		// drop the vanished points.
		for {
			affine, err := w.affineWeights(gram, k)
			if err != nil {
				return err
			}
			neg := false
			for _, a := range affine {
				if a < mnWeightEps {
					neg = true
					break
				}
			}
			if !neg {
				copy(w.weights, affine)
				break
			}
			// Largest step θ ∈ [0,1) from weights toward affine keeping
			// all weights ≥ 0: θ = min over decreasing weights of
			// w/(w−a).
			theta := 1.0
			for i, a := range affine {
				if wi := w.weights[i]; a < mnWeightEps && wi > a {
					if t := wi / (wi - a); t < theta {
						theta = t
					}
				}
			}
			kept := w.corral[:0]
			keptW := w.weights[:0]
			for i, idx := range w.corral {
				wi := w.weights[i] + theta*(affine[i]-w.weights[i])
				if wi > mnWeightEps {
					kept = append(kept, idx)
					keptW = append(keptW, wi)
				}
			}
			if len(kept) == 0 {
				return errors.New("tverberg: min-norm corral collapsed")
			}
			w.corral = kept
			w.weights = normalize(keptW)
		}
	}
	return errMinNormCap
}

// errMinNormCap reports a solve that used all mnMaxIter major cycles. The
// corral and weights it leaves are a valid convex combination (the cap is
// only checked between major cycles), just not a proven optimum.
var errMinNormCap = errors.New("tverberg: min-norm iteration cap exceeded")

// affineWeights returns the weights α (Σα = 1, unconstrained sign) of the
// minimum-norm point of the affine hull of the corral, from the KKT system
// [[0 1ᵀ][1 G]]·[μ α]ᵀ = [1 0]ᵀ with G the corral's Gram sub-matrix. The
// system is at most (k+1)-square, so it is assembled with its right-hand
// side in scratch and eliminated there with partial pivoting — no copy, no
// stored factors.
func (w *wolfe) affineWeights(gram []float64, k int) ([]float64, error) {
	n := len(w.corral) + 1
	stride := n + 1 // the last column is the right-hand side
	a := growF(&w.kkt, n*stride)
	a[0] = 0
	for j := 1; j <= n; j++ {
		a[j] = 1
	}
	for i, ci := range w.corral {
		row := a[(i+1)*stride : (i+2)*stride]
		row[0] = 1
		for j, cj := range w.corral {
			row[1+j] = gram[ci*k+cj]
		}
		row[n] = 0
	}
	for col := 0; col < n; col++ {
		p, best := -1, kktPivotEps
		for i := col; i < n; i++ {
			if v := math.Abs(a[i*stride+col]); v > best {
				p, best = i, v
			}
		}
		if p < 0 {
			return nil, errors.New("tverberg: affine min-norm system singular")
		}
		pr := a[col*stride : (col+1)*stride]
		if p != col {
			sr := a[p*stride : (p+1)*stride]
			for j := col; j <= n; j++ {
				pr[j], sr[j] = sr[j], pr[j]
			}
		}
		inv := 1 / pr[col]
		for i := col + 1; i < n; i++ {
			ri := a[i*stride : (i+1)*stride]
			f := ri[col] * inv
			if f == 0 {
				continue
			}
			for j := col + 1; j <= n; j++ {
				ri[j] -= f * pr[j]
			}
		}
	}
	x := growF(&w.affine, n)
	for i := n - 1; i >= 0; i-- {
		ri := a[i*stride : (i+1)*stride]
		s := ri[n]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return x[1:], nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normalize(w []float64) []float64 {
	var s float64
	for _, v := range w {
		s += v
	}
	if s > 0 {
		for i := range w {
			w[i] /= s
		}
	}
	return w
}

func containsIndex(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

func growI(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}
