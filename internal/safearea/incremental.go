// Incremental Γ(Y) support: the prefix-dependence contract of the method
// ladder (the delta keys of core.Engine's sub-family memoization) and an
// incremental hull-family representation for single-point deltas
// Γ(Y ∪ {y}) / Γ(Y \ {x}) / swaps.
package safearea

import (
	"fmt"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/tverberg"
)

// Resolve maps MethodAuto to the concrete method the ladder would run for a
// candidate multiset of the given size (n = |Y|), dimension and fault bound.
// Non-auto methods resolve to themselves. This mirrors PointWith's ladder
// exactly; keeping the two adjacent is load-bearing — the Engine's memo keys
// include the resolved method.
func Resolve(n, d, f int, method Method) Method {
	if method != MethodAuto {
		return method
	}
	switch {
	case d == 1, f == 0:
		return MethodAuto // closed forms; no sub-method to name
	case f == 1 && n >= d+2:
		return MethodRadon
	case n >= (d+1)*f+1:
		return MethodTverbergLift
	default:
		return MethodLexMinLP
	}
}

// PrefixLen returns how many leading members of a canonical (origin-sorted)
// candidate multiset of size n the Γ-point computed by PointWith actually
// depends on:
//
//   - MethodRadon reads the first d+2 members (RadonOfFirst);
//   - MethodTverbergLift reads the first (d+1)f+1 members (the lifted search
//     appends the rest to the last block, which cannot move the point);
//   - every other method — the d = 1 closed form, the f = 0 lex-min member,
//     the joint lex-min LP, the exhaustive search — depends on all n.
//
// Two candidate sets sharing their first PrefixLen members therefore share
// the Γ-point, PROVIDED the prefix computation certifies itself
// (PointOnPrefix): the Tverberg-lift fallback to the joint LP re-reads the
// whole multiset, so an unverified lift re-opens full dependence.
func PrefixLen(n, d, f int, method Method) int {
	switch Resolve(n, d, f, method) {
	case MethodRadon:
		if f == 1 && n > d+2 {
			return d + 2
		}
	case MethodTverbergLift:
		if m := (d+1)*f + 1; n > m {
			return m
		}
	}
	return n
}

// PointOnPrefix computes the Γ-point of any candidate multiset whose first
// members equal prefix (with |prefix| = PrefixLen(n, d, f, method) < n for
// the superset size n in question). The boolean result reports whether the
// point is *certified* from the prefix alone — bit-identical to what
// PointWith returns for every such superset:
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
func PointOnPrefix(prefix *geometry.Multiset, f int, method Method) (geometry.Vector, bool, error) {
	d := prefix.Dim()
	// The prefix's frame, as in PointWith: when the prefix is exactly the
	// lift rung's members it is the rung's frame too.
	var loBuf [frameStackDims]float64
	var lo geometry.Vector
	var spread float64
	if d > 1 && f > 0 {
		lo, spread = normParams(loBuf[:0], prefix, prefix.Len())
		if spread <= hull.DefaultTol {
			// The full multiset may take the degenerate-spread shortcut
			// (PointWith), whose result depends on ALL members — a prefix
			// cannot certify it.
			return nil, false, nil
		}
	}
	switch Resolve(prefix.Len(), d, f, method) {
	case MethodRadon:
		if f != 1 || prefix.Len() < d+2 {
			return nil, false, nil
		}
		part, err := tverberg.RadonOfFirst(prefix)
		if err != nil {
			return nil, false, err
		}
		return part.Point, true, nil
	case MethodTverbergLift:
		if prefix.Len() < (d+1)*f+1 {
			return nil, false, nil
		}
		lo, scale := liftFrame(loBuf[:0], prefix, f, lo, spread)
		pt, ok := liftPoint(prefix, f, lo, scale)
		return pt, ok, nil
	default:
		return nil, false, nil
	}
}

// Incremental maintains Γ(Y) for a working multiset under single-point
// deltas. It materializes the hull family {H(T) : T ⊆ Y, |T| = |Y|−f} once
// and, on Add/Remove/Swap, rebuilds only the groups whose index set contains
// a changed slot — the C(|Y|−1, f)-sized sub-family avoiding the slot is
// shared untouched. Membership queries keep one warm simplex basis per group
// (verdicts are basis-independent), so re-testing after a delta re-solves
// only the affected groups from cold.
//
// Point queries route through the identical method ladder as PointWith and
// return bit-identical results — Incremental is a representation, not an
// approximation. It is not safe for concurrent use.
type Incremental struct {
	f    int
	y    *geometry.Multiset
	keep int

	// groups[g] lists the member slots of group g (ascending); the order is
	// the lexicographic subset order, matching groups().
	groups [][]int
	pts    [][]geometry.Vector // materialized group point sets (shared vectors)
	basis  []hullBasis         // per-group warm membership state
}

// hullBasis pairs a per-group membership tester so each group's warm basis
// survives deltas to other groups.
type hullBasis struct {
	mt *hull.MembershipTester
}

// NewIncremental builds the incremental representation of Γ(Y).
func NewIncremental(y *geometry.Multiset, f int) (*Incremental, error) {
	keep, err := validate(y, f)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{f: f, y: y.Clone(), keep: keep}
	if err := inc.rebuild(); err != nil {
		return nil, err
	}
	return inc, nil
}

// rebuild materializes the group index sets and point views from scratch.
func (inc *Incremental) rebuild() error {
	n := inc.y.Len()
	count := combin.Binomial(n, inc.keep)
	if count <= 0 {
		return fmt.Errorf("safearea: no size-%d subsets of |Y| = %d", inc.keep, n)
	}
	inc.groups = inc.groups[:0]
	inc.pts = inc.pts[:0]
	err := combin.Combinations(n, inc.keep, func(idx []int) bool {
		g := make([]int, len(idx))
		copy(g, idx)
		pts := make([]geometry.Vector, len(idx))
		for i, j := range idx {
			pts[i] = inc.y.At(j)
		}
		inc.groups = append(inc.groups, g)
		inc.pts = append(inc.pts, pts)
		return true
	})
	if err != nil {
		return err
	}
	inc.basis = make([]hullBasis, len(inc.groups))
	return nil
}

// Len returns |Y|.
func (inc *Incremental) Len() int { return inc.y.Len() }

// Multiset returns a copy of the working multiset.
func (inc *Incremental) Multiset() *geometry.Multiset { return inc.y.Clone() }

// Groups returns the number of hulls in the family: C(|Y|, f).
func (inc *Incremental) Groups() int { return len(inc.groups) }

// Key appends the canonical multiset key of the working Y to dst — the
// identity under which Γ(Y) results may be shared (geometry.AppendKey per
// member, in order).
func (inc *Incremental) Key(dst []byte) []byte {
	for i := 0; i < inc.y.Len(); i++ {
		dst = geometry.AppendKey(dst, inc.y.At(i))
	}
	return dst
}

// Swap replaces member i with v: Γ(Y \ {yᵢ} ∪ {v}). Only the C(|Y|−1, f−1)…
// groups containing slot i are re-materialized (their warm bases drop); the
// rest of the family — C(|Y|−1, f) groups — is untouched.
func (inc *Incremental) Swap(i int, v geometry.Vector) error {
	if i < 0 || i >= inc.y.Len() {
		return fmt.Errorf("safearea: swap index %d out of range [0,%d)", i, inc.y.Len())
	}
	if v.Dim() != inc.y.Dim() {
		return fmt.Errorf("safearea: swap dimension %d, multiset dimension %d", v.Dim(), inc.y.Dim())
	}
	old := inc.y.At(i)
	copy(old, v) // members are owned clones; update in place so views stay live
	for g, slots := range inc.groups {
		for _, s := range slots {
			if s == i {
				if inc.basis[g].mt != nil {
					inc.basis[g].mt = nil // invalidate the warm basis
				}
				break
			}
		}
	}
	return nil
}

// Add appends member v: Γ(Y ∪ {v}). The family is re-enumerated (group
// count changes), but group point views over unchanged slots are rebuilt
// from shared vectors, not re-cloned.
func (inc *Incremental) Add(v geometry.Vector) error {
	if err := inc.y.Add(v); err != nil {
		return err
	}
	inc.keep = inc.y.Len() - inc.f
	return inc.rebuild()
}

// Remove deletes member i: Γ(Y \ {yᵢ}).
func (inc *Incremental) Remove(i int) error {
	y, err := inc.y.WithoutIndex(i)
	if err != nil {
		return err
	}
	if _, err := validate(y, inc.f); err != nil {
		return err
	}
	inc.y = y.Clone() // own the member vectors (WithoutIndex shares them)
	inc.keep = inc.y.Len() - inc.f
	return inc.rebuild()
}

// Contains reports whether z ∈ Γ(Y) within tol, walking the family with
// per-group warm-started membership solves. The verdict is identical to
// Contains on the working multiset.
func (inc *Incremental) Contains(z geometry.Vector, tol float64) (bool, error) {
	if z.Dim() != inc.y.Dim() {
		return false, fmt.Errorf("safearea: point dimension %d, multiset dimension %d", z.Dim(), inc.y.Dim())
	}
	for g := range inc.groups {
		if inc.basis[g].mt == nil {
			inc.basis[g].mt = hull.NewMembershipTester()
		}
		ok, err := inc.basis[g].mt.Test(inc.pts[g], z, tol)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// IsEmpty reports whether Γ(Y) is empty for the working multiset.
func (inc *Incremental) IsEmpty() (bool, error) {
	if inc.f == 0 {
		return false, nil
	}
	if inc.y.Dim() == 1 {
		lo, hi, err := interval(inc.y, inc.f)
		if err != nil {
			return false, err
		}
		return lo > hi, nil
	}
	return hull.IntersectionEmpty(inc.pts)
}

// Point returns the deterministic Γ-point of the working multiset under
// method — bit-identical to PointWith on the same multiset.
func (inc *Incremental) Point(method Method) (geometry.Vector, error) {
	return PointWith(inc.y, inc.f, method)
}
