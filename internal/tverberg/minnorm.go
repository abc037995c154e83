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
// The projection solves M·u = 𝟙 with M = 𝟙𝟙ᵀ + G_C (G_C the corral's Gram
// sub-matrix), whose solution, scaled to sum 1, is the affine minimum-norm
// point's weights. M is positive definite exactly when the corral is
// affinely independent, and wolfe keeps its upper-triangular Cholesky factor
// R (RᵀR = M) current as the corral changes — a column appended when a
// point enters, a column deleted and the rest re-triangularized by Givens
// rotations when one leaves — so every projection is two triangular solves.
//
// The corral, its weights and R persist between solves. That is the lifted
// search's warm start: a Bárány pivot replaces a point OUTSIDE the corral,
// so G_C — and with it R — is unchanged, the previous optimum stays a
// feasible corral of the new point set, and the next solve resumes from it
// instead of from a single point.
//
// The computation is deterministic: ties in point selection break toward
// the lowest index, and start discards whatever an earlier call left.
type wolfe struct {
	corral  []int     // indices of the corral members
	weights []float64 // their convex weights, parallel to corral
	xp      []float64 // ⟨x, p_j⟩ for every point, as of the last major cycle
	r       []float64 // k×k row-major, upper triangle: the Cholesky factor of 𝟙𝟙ᵀ + G_C
	affine  []float64 // the affine projection's weights, parallel to corral
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
	// rho2Eps is what an entering point's new diagonal square
	// ρ² = M_ee − ‖s‖² must exceed. ρ² is the squared distance of (1, p_e)
	// from the span of the corral's (1, p_c), so an entrant at or below it
	// is affinely dependent on the corral up to rounding, and R extended by
	// it would no longer factor a positive definite M. The systems are Gram
	// matrices of lifted points, not row-equilibrated O(1) data, and a
	// wider threshold would push solvable corrals onto the expensive
	// fallback ladder.
	rho2Eps = 1e-13
)

// start resets the corral to the single point of smallest norm (lowest
// index on ties) and R to [√(1 + G_ff)]. gram is the k×k row-major Gram
// matrix; k is also R's row stride for the solves that follow.
func (w *wolfe) start(gram []float64, k int) {
	first, best := 0, math.Inf(1)
	for i := 0; i < k; i++ {
		if n2 := gram[i*k+i]; n2 < best {
			first, best = i, n2
		}
	}
	w.corral = append(w.corral[:0], first)
	w.weights = append(w.weights[:0], 1)
	w.r = growF(&w.r, k*k)
	w.r[0] = math.Sqrt(1 + best)
}

// solve runs major cycles from the current corral until no point improves
// on x. On return corral/weights describe the minimum-norm point and R
// factors its corral; an error other than errMinNormCap leaves them in an
// unspecified (but in-bounds) state.
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
		if err := w.enter(gram, k, enter); err != nil {
			return err
		}

		// Minor cycles: project onto the affine hull of the corral; while
		// the affine weights leave the simplex, step to the boundary and
		// drop the vanished points.
		for {
			affine := w.affineWeights(k)
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
			for i, a := range affine {
				w.weights[i] += theta * (a - w.weights[i])
			}
			// Back to front, so a drop never moves a position still to
			// be visited.
			for i := len(w.corral) - 1; i >= 0; i-- {
				if !(w.weights[i] > mnWeightEps) {
					w.drop(k, i)
				}
			}
			if len(w.corral) == 0 {
				return errors.New("tverberg: min-norm corral collapsed")
			}
			normalize(w.weights)
		}
	}
	return errMinNormCap
}

// errMinNormCap reports a solve that used all mnMaxIter major cycles. The
// corral and weights it leaves are a valid convex combination (the cap is
// only checked between major cycles), just not a proven optimum.
var errMinNormCap = errors.New("tverberg: min-norm iteration cap exceeded")

// errSingularEntry reports a point that cannot enter the corral because it
// is affinely dependent on it up to rho2Eps.
var errSingularEntry = errors.New("tverberg: affine min-norm system singular")

// enter appends point e to the corral with weight 0 and R's new column
// (s, ρ): one forward solve Rᵀs = 𝟙 + G[C, e] and ρ² = 1 + G_ee − ‖s‖².
// An entrant with ρ² ≤ rho2Eps (or NaN) is rejected and leaves the corral
// and its factor as they were.
func (w *wolfe) enter(gram []float64, k, e int) error {
	n := len(w.corral)
	r := w.r
	rho2 := 1 + gram[e*k+e]
	for i, ci := range w.corral {
		s := 1 + gram[ci*k+e]
		for j := 0; j < i; j++ {
			s -= r[j*k+i] * r[j*k+n]
		}
		s /= r[i*k+i]
		r[i*k+n] = s
		rho2 -= s * s
	}
	if !(rho2 > rho2Eps) {
		return errSingularEntry
	}
	r[n*k+n] = math.Sqrt(rho2)
	w.corral = append(w.corral, e)
	w.weights = append(w.weights, 0)
	return nil
}

// drop removes corral position p: its member, its weight and R's column p.
// Deleting the column leaves R upper Hessenberg from column p on; a Givens
// rotation of rows (j, j+1) per later column zeroes the subdiagonal again,
// and the last row, now zero, falls off. RᵀR stays M without row and
// column p, since the rotations are orthogonal.
func (w *wolfe) drop(k, p int) {
	n := len(w.corral)
	r := w.r
	for i := 0; i < n; i++ {
		row := r[i*k : i*k+n]
		for l := max(p, i-1); l < n-1; l++ {
			row[l] = row[l+1]
		}
	}
	for j := p; j < n-1; j++ {
		rj, rj1 := r[j*k:j*k+n-1], r[(j+1)*k:(j+1)*k+n-1]
		a, b := rj[j], rj1[j]
		h := math.Sqrt(a*a + b*b)
		c, s := a/h, b/h
		rj[j], rj1[j] = h, 0
		for l := j + 1; l < n-1; l++ {
			x, y := rj[l], rj1[l]
			rj[l] = c*x + s*y
			rj1[l] = c*y - s*x
		}
	}
	w.corral = append(w.corral[:p], w.corral[p+1:]...)
	w.weights = append(w.weights[:p], w.weights[p+1:]...)
}

// affineWeights returns the weights α (Σα = 1, unconstrained sign) of the
// minimum-norm point of the affine hull of the corral: α = u/Σu with
// RᵀR·u = 𝟙, a forward and a back substitution through the carried factor.
func (w *wolfe) affineWeights(k int) []float64 {
	n := len(w.corral)
	r := w.r
	u := growF(&w.affine, n)
	for i := 0; i < n; i++ {
		s := 1.0
		for j := 0; j < i; j++ {
			s -= r[j*k+i] * u[j]
		}
		u[i] = s / r[i*k+i]
	}
	var sum float64
	for i := n - 1; i >= 0; i-- {
		s := u[i]
		for j := i + 1; j < n; j++ {
			s -= r[i*k+j] * u[j]
		}
		u[i] = s / r[i*k+i]
		sum += u[i]
	}
	for i := range u {
		u[i] /= sum
	}
	return u
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
