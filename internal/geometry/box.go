package geometry

import "fmt"

// Box is an axis-aligned box [Lo, Hi] in R^d. The asynchronous algorithm in
// the paper assumes a-priori bounds ν ≤ x_l ≤ U on every input coordinate;
// Box generalizes that to per-coordinate bounds, with UniformBox providing
// the paper's single-[ν,U] form.
type Box struct {
	Lo Vector
	Hi Vector
}

// UniformBox returns the box [lo, hi]^d.
func UniformBox(d int, lo, hi float64) Box {
	l := NewVector(d)
	h := NewVector(d)
	for i := 0; i < d; i++ {
		l[i] = lo
		h[i] = hi
	}
	return Box{Lo: l, Hi: h}
}

// Dim returns the dimension of the box.
func (b Box) Dim() int { return b.Lo.Dim() }

// Validate checks internal consistency: matching dimensions, finite bounds,
// and Lo ≤ Hi coordinate-wise.
func (b Box) Validate() error {
	if b.Lo.Dim() != b.Hi.Dim() {
		return fmt.Errorf("geometry: box dimension mismatch %d vs %d", b.Lo.Dim(), b.Hi.Dim())
	}
	if !b.Lo.IsFinite() || !b.Hi.IsFinite() {
		return fmt.Errorf("geometry: box bounds must be finite")
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("geometry: box lo[%d]=%g > hi[%d]=%g", i, b.Lo[i], i, b.Hi[i])
		}
	}
	return nil
}

// Contains reports whether p lies inside the box (inclusive), within tol.
func (b Box) Contains(p Vector, tol float64) bool {
	if p.Dim() != b.Dim() {
		return false
	}
	for i := range p {
		if p[i] < b.Lo[i]-tol || p[i] > b.Hi[i]+tol {
			return false
		}
	}
	return true
}

// MaxRange returns the largest per-coordinate extent Hi_l − Lo_l, the (U − ν)
// quantity in the paper's round-count bound.
func (b Box) MaxRange() float64 {
	var m float64
	for i := range b.Lo {
		if r := b.Hi[i] - b.Lo[i]; r > m {
			m = r
		}
	}
	return m
}
