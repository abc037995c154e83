// Package geometry provides the d-dimensional Euclidean primitives used by
// Byzantine vector consensus: vectors (points in R^d), multisets of points,
// axis-aligned boxes, and small numeric helpers.
//
// The paper treats a process input interchangeably as a "vector" and a
// "point"; this package follows that convention. Vectors are plain []float64
// values; all operations either return fresh slices or document in-place
// behaviour explicitly.
package geometry

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vector is a point in R^d. The zero-length vector is valid and represents a
// point in R^0; most callers construct vectors with a fixed dimension d ≥ 1.
type Vector []float64

// NewVector returns an all-zero vector of dimension d.
func NewVector(d int) Vector {
	if d < 0 {
		return nil
	}
	return make(Vector, d)
}

// Dim returns the dimension of v.
func (v Vector) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Scale returns c·v.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// DistInf returns the L∞ distance between v and w. The paper's ε-agreement
// condition is exactly "per-coordinate within ε", i.e. L∞ distance ≤ ε.
func (v Vector) DistInf(w Vector) float64 {
	mustSameDim(v, w)
	var m float64
	for i := range v {
		if d := math.Abs(v[i] - w[i]); d > m {
			m = d
		}
	}
	return m
}

// Equal reports whether v and w are identical (exact float equality,
// same dimension).
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether every coordinate of v is within tol of the
// corresponding coordinate of w.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	return v.DistInf(w) <= tol
}

// IsFinite reports whether every coordinate is a finite float (no NaN/Inf).
// Values received from potentially Byzantine processes must pass this check
// before entering geometric computations.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// String renders v as "(x1, x2, ..., xd)" with compact float formatting.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Compare orders vectors lexicographically: it returns −1, 0 or +1. Shorter
// vectors order before longer ones when they share a prefix. The ordering is
// total and is used to pick deterministic representatives across processes.
func (v Vector) Compare(w Vector) int {
	n := min(len(v), len(w))
	for i := 0; i < n; i++ {
		switch {
		case v[i] < w[i]:
			return -1
		case v[i] > w[i]:
			return 1
		}
	}
	switch {
	case len(v) < len(w):
		return -1
	case len(v) > len(w):
		return 1
	}
	return 0
}

// Mean returns the coordinate-wise average of the given points, all of which
// must share a dimension. It returns an error for an empty input.
func Mean(points []Vector) (Vector, error) {
	if len(points) == 0 {
		return nil, errors.New("geometry: mean of empty point set")
	}
	d := points[0].Dim()
	sum := NewVector(d)
	for _, p := range points {
		if p.Dim() != d {
			return nil, fmt.Errorf("geometry: mixed dimensions %d and %d", d, p.Dim())
		}
		for i := range sum {
			sum[i] += p[i]
		}
	}
	inv := 1 / float64(len(points))
	for i := range sum {
		sum[i] *= inv
	}
	return sum, nil
}

// mustSameDim panics on dimension mismatch. Dimension agreement is an
// internal invariant: all external inputs are validated on entry.
func mustSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("geometry: dimension mismatch %d vs %d", len(v), len(w)))
	}
}
