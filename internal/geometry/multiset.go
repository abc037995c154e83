package geometry

import (
	"fmt"
	"strings"
)

// Multiset is an ordered multiset of points in R^d, the paper's fundamental
// collection type (Appendix B): the same point may occur multiple times, and
// members are addressed by index. Order is significant for determinism — two
// correct processes holding the same multiset in the same order make
// identical deterministic choices.
type Multiset struct {
	points []Vector
	dim    int
}

// NewMultiset returns an empty multiset of points of dimension d.
func NewMultiset(d int) *Multiset {
	return &Multiset{dim: d}
}

// MultisetOf builds a multiset from the given points, which must all share a
// dimension. The points are cloned: later mutation of the arguments does not
// affect the multiset.
func MultisetOf(points ...Vector) (*Multiset, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("geometry: empty multiset needs an explicit dimension; use NewMultiset")
	}
	m := NewMultiset(points[0].Dim())
	for _, p := range points {
		if err := m.Add(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// MustMultisetOf is MultisetOf for statically-known-good inputs (tests,
// examples); it panics on error.
func MustMultisetOf(points ...Vector) *Multiset {
	m, err := MultisetOf(points...)
	if err != nil {
		panic(err)
	}
	return m
}

// ViewOf returns a multiset over the given points WITHOUT copying them: the
// slice and its vectors are shared, so the caller must leave both unchanged
// for as long as the multiset is in use. It exists for hot paths that hand
// immutable values (the Γ-point engine's delivered tuple values) to a
// Multiset-taking reader that only looks; everything else wants MultisetOf.
func ViewOf(points []Vector) (*Multiset, error) {
	m := new(Multiset)
	if err := m.View(points); err != nil {
		return nil, err
	}
	return m, nil
}

// View makes m a view over points, exactly as ViewOf does, in place of
// whatever m held: a hot path that hands a fresh selection to a reader per
// call keeps one Multiset value and re-points it instead of allocating one.
// On error m is left unchanged.
func (m *Multiset) View(points []Vector) error {
	if len(points) == 0 {
		return fmt.Errorf("geometry: empty multiset needs an explicit dimension; use NewMultiset")
	}
	d := points[0].Dim()
	for _, p := range points[1:] {
		if p.Dim() != d {
			return fmt.Errorf("geometry: point dimension %d, multiset dimension %d", p.Dim(), d)
		}
	}
	m.points, m.dim = points, d
	return nil
}

// Add appends a copy of p to the multiset.
func (m *Multiset) Add(p Vector) error {
	if p.Dim() != m.dim {
		return fmt.Errorf("geometry: point dimension %d, multiset dimension %d", p.Dim(), m.dim)
	}
	m.points = append(m.points, p.Clone())
	return nil
}

// Len returns |Y|, the number of members (counting multiplicity).
func (m *Multiset) Len() int { return len(m.points) }

// Dim returns the dimension of the member points.
func (m *Multiset) Dim() int { return m.dim }

// At returns the i-th member. The returned vector is shared; callers must not
// mutate it.
func (m *Multiset) At(i int) Vector { return m.points[i] }

// Points returns a copy of the member slice (vectors shared, slice fresh).
func (m *Multiset) Points() []Vector {
	out := make([]Vector, len(m.points))
	copy(out, m.points)
	return out
}

// Clone returns a deep copy of the multiset.
func (m *Multiset) Clone() *Multiset {
	out := &Multiset{dim: m.dim, points: make([]Vector, len(m.points))}
	for i, p := range m.points {
		out.points[i] = p.Clone()
	}
	return out
}

// Subset returns the sub-multiset selected by the given member indices, in
// the given order. Indices may repeat (the result is still a multiset over
// the original index set when they do not).
func (m *Multiset) Subset(indices []int) (*Multiset, error) {
	out := &Multiset{dim: m.dim, points: make([]Vector, 0, len(indices))}
	for _, i := range indices {
		if i < 0 || i >= len(m.points) {
			return nil, fmt.Errorf("geometry: subset index %d out of range [0,%d)", i, len(m.points))
		}
		out.points = append(out.points, m.points[i])
	}
	return out, nil
}

// Equal reports whether two multisets have identical members in identical
// order.
func (m *Multiset) Equal(o *Multiset) bool {
	if m.dim != o.dim || len(m.points) != len(o.points) {
		return false
	}
	for i := range m.points {
		if !m.points[i].Equal(o.points[i]) {
			return false
		}
	}
	return true
}

// Bounds returns the coordinate-wise min and max over the members: the
// tightest axis-aligned box containing the multiset. It returns an error for
// an empty multiset.
func (m *Multiset) Bounds() (lo, hi Vector, err error) {
	if len(m.points) == 0 {
		return nil, nil, fmt.Errorf("geometry: bounds of empty multiset")
	}
	lo = m.points[0].Clone()
	hi = m.points[0].Clone()
	for _, p := range m.points[1:] {
		for i := range p {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return lo, hi, nil
}

// SpreadInf returns the maximum per-coordinate range max_l (Ω_l − µ_l); this
// is the quantity ρ[t] whose per-round contraction the convergence proof
// bounds (paper Appendix E).
func (m *Multiset) SpreadInf() (float64, error) {
	lo, hi, err := m.Bounds()
	if err != nil {
		return 0, err
	}
	var s float64
	for i := range lo {
		if d := hi[i] - lo[i]; d > s {
			s = d
		}
	}
	return s, nil
}

// String renders the multiset as "{p1, p2, ...}".
func (m *Multiset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range m.points {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}
