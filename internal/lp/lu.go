package lp

import "math"

// luEps is the singularity threshold of the LU factorization: no usable
// pivot of at least this magnitude means the matrix is numerically rank
// deficient. Basis matrices here are built from row-equilibrated data, so an
// absolute threshold is meaningful.
const luEps = 1e-11

// luFactorize factors the dim×dim row-major matrix in place (L unit lower
// below the diagonal, U on and above) with partial pivoting, recording the
// row interchanges in piv. It reports false when no pivot of magnitude
// > luEps exists in some column (numerically singular).
func luFactorize(lu []float64, piv []int, dim int) bool {
	return luFactorizeTrack(lu, piv, nil, dim) < 0
}

// luFactorizeTrack is luFactorize, additionally maintaining the physical
// identity of each permuted row in rowID (when non-nil) and reporting the
// failing elimination step instead of a boolean: a return of k ≥ 0 means
// column k is numerically dependent on columns 0..k−1, and rowID[k:]
// identifies the rows still available for a basis repair. Returns −1 on
// success.
func luFactorizeTrack(lu []float64, piv, rowID []int, dim int) int {
	for k := 0; k < dim; k++ {
		p, best := -1, luEps
		for i := k; i < dim; i++ {
			if a := math.Abs(lu[i*dim+k]); a > best {
				p, best = i, a
			}
		}
		if p < 0 {
			return k
		}
		piv[k] = p
		if p != k {
			rk := lu[k*dim : k*dim+dim]
			rp := lu[p*dim : p*dim+dim]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			if rowID != nil {
				rowID[k], rowID[p] = rowID[p], rowID[k]
			}
		}
		inv := 1 / lu[k*dim+k]
		rk := lu[k*dim : k*dim+dim]
		for i := k + 1; i < dim; i++ {
			f := lu[i*dim+k] * inv
			lu[i*dim+k] = f
			if f == 0 {
				continue
			}
			ri := lu[i*dim : i*dim+dim]
			axpyNeg(ri[k+1:], f, rk[k+1:])
		}
	}
	return -1
}

// dotVec returns Σ a[i]·b[i] with four independent accumulators: the inner
// loops of the triangular solves are loop-carried reductions, and Go emits
// scalar code, so splitting the dependency chain is worth ~2× on the hot
// path. Requires len(b) ≥ len(a).
func dotVec(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + s2) + s3
}

// axpyNeg computes y[i] -= alpha·x[i], unrolled. Requires len(x) ≥ len(y).
func axpyNeg(y []float64, alpha float64, x []float64) {
	n := len(y)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] -= alpha * x[i]
		y[i+1] -= alpha * x[i+1]
		y[i+2] -= alpha * x[i+2]
		y[i+3] -= alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] -= alpha * x[i]
	}
}
