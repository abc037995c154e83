// Incremental Γ(Y) support: the prefix-dependence contract of the method
// ladder (the delta keys of core.Engine's sub-family memoization) and a
// working multiset under member swaps.
package safearea

import (
	"fmt"

	"repro/internal/geometry"
)

// PrefixLen returns how many leading members of a canonical (origin-sorted)
// candidate multiset of size n the ladder's Γ-point (PointWith under
// MethodAuto) actually depends on, by the rung Resolve picks:
//
//   - MethodRadon reads the first d+2 members (RadonOfFirst);
//   - MethodTverbergLift reads the first (d+1)f+1 members (the lifted search
//     appends the rest to the last block, which cannot move the point);
//   - every other rung — the d = 1 closed form, the f = 0 lex-min member,
//     the joint lex-min LP — depends on all n.
//
// Two candidate sets sharing their first PrefixLen members therefore share
// the Γ-point, PROVIDED the prefix computation certifies itself
// (PointOnPrefix): the Tverberg-lift fallback to the joint LP re-reads the
// whole multiset, so an unverified lift re-opens full dependence.
func PrefixLen(n, d, f int) int {
	if m := rungLen(d, f, Resolve(n, d, f, MethodAuto)); m > 0 && n > m {
		return m
	}
	return n
}

// PointOnPrefix computes the Γ-point of any candidate multiset whose first
// members equal prefix (with |prefix| = PrefixLen(n, d, f) < n for the
// superset size n in question). The boolean result reports whether the
// point is *certified* from the prefix alone — bit-identical to what
// PointWith under MethodAuto returns for every such superset:
//
//   - Radon: always certified (PointWith never verifies the f = 1 Radon
//     point; the partition extension only grows the second block's hull).
//   - Tverberg lift: certified iff the lift rung (liftPoint, the same
//     helper PointWith runs) accepts the prefix's lifted partition.
//     Appending members only grows the last block's hull, so prefix
//     acceptance implies superset acceptance and the superset path returns
//     the identical lift point. A rejected prefix is NOT certified: the
//     superset's own ladder (a verification rescued by the appended
//     members, or the fallback chain over the full multiset) must run from
//     scratch.
//
// (false, nil) means the caller must fall back to the full candidate set.
func PointOnPrefix(prefix *geometry.Multiset, f int) (geometry.Vector, bool, error) {
	var loBuf [frameStackDims]float64
	lo, spread, degenerate := ownFrame(loBuf[:0], prefix, f)
	if degenerate {
		// The full multiset may take the degenerate-spread shortcut
		// (PointWith), whose result depends on ALL members — a prefix
		// cannot certify it.
		return nil, false, nil
	}
	d := prefix.Dim()
	method := Resolve(prefix.Len(), d, f, MethodAuto)
	if m := rungLen(d, f, method); m == 0 || prefix.Len() < m {
		return nil, false, nil
	}
	return prefixRung(loBuf[:0], prefix, f, method, lo, spread)
}

// Incremental holds a working multiset for Γ(Y) under member swaps. Point
// routes through the identical method ladder as PointWith and returns
// bit-identical results. It is not safe for concurrent use.
type Incremental struct {
	f int
	y *geometry.Multiset
}

// NewIncremental copies y into a new working multiset.
func NewIncremental(y *geometry.Multiset, f int) (*Incremental, error) {
	if _, err := validate(y, f); err != nil {
		return nil, err
	}
	return &Incremental{f: f, y: y.Clone()}, nil
}

// Len returns |Y|.
func (inc *Incremental) Len() int { return inc.y.Len() }

// Swap replaces member i with v: Y \ {yᵢ} ∪ {v}.
func (inc *Incremental) Swap(i int, v geometry.Vector) error {
	if i < 0 || i >= inc.y.Len() {
		return fmt.Errorf("safearea: swap index %d out of range [0,%d)", i, inc.y.Len())
	}
	if v.Dim() != inc.y.Dim() {
		return fmt.Errorf("safearea: swap dimension %d, multiset dimension %d", v.Dim(), inc.y.Dim())
	}
	copy(inc.y.At(i), v) // members are owned clones
	return nil
}

// Point returns the deterministic Γ-point of the working multiset under
// method — bit-identical to PointWith on the same multiset.
func (inc *Incremental) Point(method Method) (geometry.Vector, error) {
	return PointWith(inc.y, inc.f, method)
}
