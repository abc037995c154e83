// Package safearea computes the paper's safe area
//
//	Γ(Y) = ∩_{T ⊆ Y, |T| = |Y|−f} H(T)            (paper eq. (1))
//
// — the intersection of the convex hulls of all subsets of Y that exclude f
// members. Lemma 1 guarantees Γ(Y) ≠ ∅ whenever |Y| ≥ (d+1)f+1; the Exact
// BVC algorithm decides on a deterministic point of Γ(S), and the
// approximate algorithms collect points of Γ(Φ(C)) per round.
//
// Three point-selection strategies are provided and benchmarked as an
// ablation (BenchmarkSafePoint in the root package; docs/ARCHITECTURE.md
// describes the auto-selection ladder, which Resolve picks from):
//
//   - MethodLexMinLP: the paper's §2.2 linear program, extended to return
//     the lexicographically minimal point (deterministic across processes).
//   - MethodRadon: for f = 1, the Radon point of the first d+2 members is a
//     Tverberg point and therefore lies in Γ(Y); O(d³) instead of an LP.
//   - MethodTverbergLift: for any f with |Y| ≥ (d+1)f+1, a Tverberg point
//     of the first (d+1)f+1 members via Sarkaria's lifting — polynomial
//     where the joint lex-min LP grows combinatorially, and the key to the
//     d ≥ 2, f ≥ 2 grids. The partition is accepted on its own convex
//     certificate, or failing that verified geometrically; on failure
//     the ladder scans (f+1)-partitions for one whose block hulls admit a
//     common point (any such point is in Γ), with the joint LP as the
//     conclusive last resort. Proportionally degenerate inputs are
//     affinely normalized to unit spread first (Γ is affine-equivariant).
//
// For d = 1 everything collapses to closed form: Γ(Y) is the interval
// [y₍f+1₎, y₍|Y|−f₎] of the sorted members.
package safearea

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/tverberg"
)

// Method selects how a point of Γ(Y) is computed.
type Method int

// Point-selection methods.
const (
	// MethodAuto picks the cheapest applicable method (Resolve): closed
	// form for d = 1 or f = 0, Radon for f = 1, the Tverberg lift above the
	// Lemma 1 threshold, otherwise the lex-min LP.
	MethodAuto Method = iota + 1
	// MethodLexMinLP solves the paper's LP, lexicographically minimized.
	MethodLexMinLP
	// MethodRadon uses the Radon-point fast path (requires f == 1).
	MethodRadon
	// MethodTverbergLift computes a Tverberg point of the first (d+1)f+1
	// members via Sarkaria's lifted colorful-Carathéodory search (any f,
	// polynomial), verifying the partition and falling back to the
	// partition scan and then the lex-min LP if verification fails.
	MethodTverbergLift
)

func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodLexMinLP:
		return "lexmin-lp"
	case MethodRadon:
		return "radon"
	case MethodTverbergLift:
		return "tverberg-lift"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ErrEmpty is returned by Point when Γ(Y) is empty.
var ErrEmpty = errors.New("safearea: Γ(Y) is empty")

// liftVerifyTol is the geometric tolerance for accepting a lifted Tverberg
// partition. The candidate multisets of late protocol rounds hold
// nearly-coincident points (the algorithm is converging), where the lifted
// search's point routinely verifies to 1e-6 but not to hull.DefaultTol —
// rejecting those sends an avalanche of solves down the far more expensive
// joint-LP fallback for no accuracy the consumers can observe (decisions
// are validity-checked end-to-end at the default tolerance and pass). It is
// measured in the lift rung's frame (liftPoint), and is what the rung's
// membership LPs enforce when the partition's own certificate — good to
// tverberg.CertTol, half of this — misses.
const liftVerifyTol = 1e-6

// validate checks the (Y, f) pair and returns |Y| − f.
func validate(y *geometry.Multiset, f int) (int, error) {
	if y == nil || y.Len() == 0 {
		return 0, errors.New("safearea: empty multiset")
	}
	if f < 0 {
		return 0, fmt.Errorf("safearea: negative f = %d", f)
	}
	keep := y.Len() - f
	if keep <= 0 {
		return 0, fmt.Errorf("safearea: |Y| = %d with f = %d leaves no subset", y.Len(), f)
	}
	return keep, nil
}

// groups collects the point sets of all (|Y|−f)-subsets of Y for the joint
// hull-intersection LP. The subsets are streamed from combin.Combinations
// into a single flat backing array (two allocations total instead of one per
// subset); the vectors themselves are shared with y.
func groups(y *geometry.Multiset, keep int) ([][]geometry.Vector, error) {
	count := combin.Binomial(y.Len(), keep)
	if count <= 0 {
		return nil, fmt.Errorf("safearea: no size-%d subsets of |Y| = %d", keep, y.Len())
	}
	flat := make([]geometry.Vector, 0, int(count)*keep)
	out := make([][]geometry.Vector, 0, count)
	err := combin.Combinations(y.Len(), keep, func(idx []int) bool {
		start := len(flat)
		for _, j := range idx {
			flat = append(flat, y.At(j))
		}
		out = append(out, flat[start:len(flat):len(flat)])
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// IsEmpty reports whether Γ(Y) is empty for the given fault bound.
func IsEmpty(y *geometry.Multiset, f int) (bool, error) {
	keep, err := validate(y, f)
	if err != nil {
		return false, err
	}
	if f == 0 {
		return false, nil // Γ(Y) = H(Y), never empty for non-empty Y
	}
	if y.Dim() == 1 {
		lo, hi, err := interval(y, f)
		if err != nil {
			return false, err
		}
		return lo > hi, nil
	}
	gs, err := groups(y, keep)
	if err != nil {
		return false, err
	}
	return hull.IntersectionEmpty(gs)
}

// Contains reports whether z ∈ Γ(Y) within tolerance tol (hull.DefaultTol
// if tol ≤ 0): z must lie in the hull of every (|Y|−f)-subset.
//
// The C(|Y|, f) subsets are walked in lexicographic order, stopping at the
// first event — a non-containing subset or an LP error, whichever has the
// lower rank. The verdict is order-independent (feasibility of each
// subset's LP); the error, if any, is the lowest-rank subset's.
func Contains(y *geometry.Multiset, f int, z geometry.Vector, tol float64) (bool, error) {
	keep, err := validate(y, f)
	if err != nil {
		return false, err
	}
	if z.Dim() != y.Dim() {
		return false, fmt.Errorf("safearea: point dimension %d, multiset dimension %d", z.Dim(), y.Dim())
	}
	inside := true
	var cerr error
	pts := make([]geometry.Vector, keep)
	err = combin.Combinations(y.Len(), keep, func(idx []int) bool {
		for i, j := range idx {
			pts[i] = y.At(j)
		}
		ok, err := hull.Contains(pts, z, tol)
		if err != nil {
			cerr = err
			return false
		}
		if !ok {
			inside = false
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	if cerr != nil {
		return false, cerr
	}
	return inside, nil
}

// Resolve maps MethodAuto to the concrete method the ladder runs for a
// candidate multiset of the given size (n = |Y|), dimension and fault bound;
// PointWith resolves MethodAuto here, so this switch is the ladder. The
// closed forms (d = 1, f = 0) resolve to MethodAuto itself. Non-auto
// methods resolve to themselves.
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
		// Above the Lemma 1 threshold the lifted Tverberg search is
		// polynomial and numerically robust where the joint LP over
		// C(|Y|, f) hulls is neither; every product candidate set (exact
		// S, restricted and async Φ(C)) with f ≥ 2 lands here.
		return MethodTverbergLift
	default:
		return MethodLexMinLP
	}
}

// PointWith returns a deterministic point of Γ(Y) computed with the given
// method. It returns ErrEmpty if Γ(Y) is empty (only possible when |Y| <
// (d+1)f+1; Lemma 1 guarantees non-emptiness above that threshold).
func PointWith(y *geometry.Multiset, f int, method Method) (geometry.Vector, error) {
	keep, err := validate(y, f)
	if err != nil {
		return nil, err
	}
	d := y.Dim()
	var loBuf [frameStackDims]float64
	lo, spread, degenerate := ownFrame(loBuf[:0], y, f)
	if degenerate {
		return lexMinMember(y), nil
	}
	method = Resolve(y.Len(), d, f, method)
	switch method {
	case MethodAuto: // the closed forms
		if d == 1 {
			lo, hi, err := interval(y, f)
			if err != nil {
				return nil, err
			}
			if lo > hi {
				return nil, ErrEmpty
			}
			return geometry.Vector{lo}, nil
		}
		// f = 0: Γ(Y) = H(Y), so any member is inside; pick the lex-min one.
		return lexMinMember(y), nil

	case MethodLexMinLP:
		// Normalize proportionally degenerate inputs for the joint LP: the
		// solver's tolerances are absolute and tuned for O(1) data, but
		// mid-run candidate sets span ever-smaller ranges as the protocol
		// converges. Γ is affine-equivariant — Γ(aY+b) = a·Γ(Y)+b, and the
		// lex-min point maps along — so the set is translated and scaled to
		// unit spread, solved there, and the point mapped back. (The lift
		// rung normalizes the same way, in liftFrame's frame of the prefix
		// it reads.)
		if lo == nil {
			lo, spread = normParams(loBuf[:0], y, y.Len())
		}
		if needsRescale(spread) {
			pt, err := PointWith(normalizeMultiset(y, lo, spread), f, method)
			if err != nil {
				return nil, err
			}
			return denormalizePoint(pt, lo, spread), nil
		}
		gs, err := groups(y, keep)
		if err != nil {
			return nil, err
		}
		pt, ok, err := hull.LexMinCommonPoint(gs)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrEmpty
		}
		return pt, nil

	case MethodRadon, MethodTverbergLift:
		if m := rungLen(d, f, method); m == 0 || y.Len() < m {
			if method == MethodRadon {
				return nil, fmt.Errorf("safearea: Radon method needs f = 1 and |Y| ≥ d+2 = %d, got f = %d, |Y| = %d", d+2, f, y.Len())
			}
			// Below the Tverberg number the lifting does not apply; the
			// LP decides emptiness conclusively.
			return PointWith(y, f, MethodLexMinLP)
		}

	default:
		return nil, fmt.Errorf("safearea: unknown method %v", method)
	}

	pt, ok, err := prefixRung(loBuf[:0], y, f, method, lo, spread)
	if ok || err != nil {
		return pt, err
	}
	// The lifted partition failed (numerically or geometrically) — a
	// deterministic outcome, so every correct process takes the same
	// fallback chain.
	return liftFallback(y, f)
}

// ownFrame is the prologue PointWith and PointOnPrefix share: y's own
// normParams (lo appended to buf[:0]; nil for d = 1 or f = 0), which are
// the lift rung's frame too when |Y| = (d+1)f+1, and the degenerate-spread
// shortcut. When every member lies within the geometric tolerance of every
// other (the converging tail of a run: spreads decay geometrically to 1e-8
// and below), every subset hull contains every member to within that
// tolerance, so the lex-min member is a deterministic Γ-point, and the
// solvers need not grind on all-noise slivers.
func ownFrame(buf []float64, y *geometry.Multiset, f int) (lo geometry.Vector, spread float64, degenerate bool) {
	if y.Dim() <= 1 || f <= 0 {
		return nil, 0, false
	}
	lo, spread = normParams(buf, y, y.Len())
	return lo, spread, spread <= hull.DefaultTol
}

// rungLen is how many leading members the Radon rung (f = 1) or the lift
// rung reads, or 0 when method names neither rung or Radon does not apply.
func rungLen(d, f int, method Method) int {
	switch {
	case method == MethodRadon && f == 1:
		return d + 2
	case method == MethodTverbergLift:
		return (d+1)*f + 1
	}
	return 0
}

// prefixRung is the Radon/lift dispatch PointWith and PointOnPrefix share,
// for a y of at least rungLen members in ownFrame's frame (own, spread).
// ok is false when the lift rung fails; only PointWith falls back.
func prefixRung(buf []float64, y *geometry.Multiset, f int, method Method, own geometry.Vector, spread float64) (geometry.Vector, bool, error) {
	if method == MethodRadon {
		part, err := tverberg.RadonOfFirst(y)
		if err != nil {
			return nil, false, err
		}
		return part.Point, true, nil
	}
	lo, scale := liftFrame(buf, y, f, own, spread)
	pt, ok := liftPoint(y, f, lo, scale)
	return pt, ok, nil
}

// liftPoint is the lift rung: the Tverberg point of y's first (d+1)f+1
// members (|Y| must be at least that), or false when the rung fails and the
// caller's fallback chain must decide. PointWith and PointOnPrefix both end
// here, which is what keeps a prefix-certified point bit-identical to the
// full-set path: the frame, the search and the certificate read the prefix
// only.
//
// The search runs in the prefix's own frame (lo, scale) of liftFrame —
// translated to its coordinate-wise minimum and, when proportionally
// degenerate, scaled to unit spread — applied as tverberg reads the
// members, so no normalized multiset is built. The partition is accepted on
// its own convex certificate (every block's weighted mean within
// tverberg.CertTol = liftVerifyTol/2 of the point), which
// tverberg.LiftAffinePoint checks without building the partition: a
// certified rung allocates only the point it returns. Only on a miss do the
// f+1 membership LPs of tverberg.Verify run, over all of y in the same
// frame at liftVerifyTol.
func liftPoint(y *geometry.Multiset, f int, lo geometry.Vector, scale float64) (geometry.Vector, bool) {
	pt, part, err := tverberg.LiftAffinePoint(y, f+1, lo, 1/scale)
	if err != nil {
		return nil, false
	}
	if part != nil {
		if tverberg.Verify(normalizeMultiset(y, lo, scale), part, liftVerifyTol) != nil {
			return nil, false
		}
		pt = part.Point
	}
	return denormalizePoint(pt, lo, scale), true
}

// liftFrame returns the offset and scale of the lift rung's frame
// x ↦ (x − lo)/scale, from the (d+1)f+1 members the rung reads, with lo
// appended to buf[:0] (see normParams). A caller already holding y's own
// normalization parameters passes them as (own, spread), own nil when it
// does not: when y is exactly the rung's members the two frames are one
// and nothing is recomputed.
func liftFrame(buf []float64, y *geometry.Multiset, f int, own geometry.Vector, spread float64) (lo geometry.Vector, scale float64) {
	lo = own
	if lo == nil || y.Len() != (y.Dim()+1)*f+1 {
		lo, spread = normParams(buf, y, (y.Dim()+1)*f+1)
	}
	if needsRescale(spread) {
		return lo, spread
	}
	return lo, 1
}

// liftFallback decides a candidate set whose lift rung failed. On this
// branch |Y| ≥ (d+1)f+1, so a Tverberg partition EXISTS (Tverberg's
// theorem): enumerate partitions in canonical order and accept the first
// whose block hulls admit a common point — that point lies in Γ(Y)
// (removing any f members leaves at least one block intact), each probe is
// a tiny (f+1)-group LP, and the walk is deterministic. The combinatorial
// joint lex-min LP over all C(|Y|, f) hulls — the historical fallback, and
// the one solver these degenerate cluster-plus-outlier slivers can exhaust
// — is the true last resort, consulted only if the scan finds nothing.
// Both run in the lift's frame, recomputed here: failures are rare.
func liftFallback(y *geometry.Multiset, f int) (geometry.Vector, error) {
	var loBuf [frameStackDims]float64
	lo, scale := liftFrame(loBuf[:0], y, f, nil, 0)
	if scale != 1 {
		y = normalizeMultiset(y, lo, scale)
	}
	pt, ok := scanTverbergPoint(y, f)
	if !ok {
		var err error
		if pt, err = PointWith(y, f, MethodLexMinLP); err != nil {
			return nil, err
		}
	}
	if scale != 1 {
		pt = denormalizePoint(pt, lo, scale)
	}
	return pt, nil
}

// needsRescale reports whether a multiset of the given spread is
// proportionally degenerate enough to be solved at unit spread instead.
func needsRescale(spread float64) bool {
	return spread > 0 && (spread < 0.25 || spread > 4)
}

// Interval returns the closed-form Γ(Y) = [y₍f+1₎, y₍|Y|−f₎] for d = 1
// multisets (members sorted ascending; 1-indexed as in the paper).
func Interval(y *geometry.Multiset, f int) (lo, hi float64, err error) {
	if _, err := validate(y, f); err != nil {
		return 0, 0, err
	}
	if y.Dim() != 1 {
		return 0, 0, fmt.Errorf("safearea: Interval requires d = 1, got d = %d", y.Dim())
	}
	return interval(y, f)
}

func interval(y *geometry.Multiset, f int) (lo, hi float64, err error) {
	vals := make([]float64, y.Len())
	for i := 0; i < y.Len(); i++ {
		vals[i] = y.At(i)[0]
	}
	sort.Float64s(vals)
	if f >= len(vals) {
		return 0, 0, fmt.Errorf("safearea: f = %d too large for |Y| = %d", f, len(vals))
	}
	return vals[f], vals[len(vals)-1-f], nil
}

// frameStackDims is the largest dimension whose frame offset fits the
// stack buffers PointWith and PointOnPrefix hand normParams; a higher one
// allocates it.
const frameStackDims = 8

// normParams returns the per-coordinate minima and the maximum coordinate
// spread of y's first pl members — the affine normalization parameters of
// the degenerate-input rescale. The minima are appended to lo[:0], so a
// caller's buffer of capacity ≥ d holds them without an allocation.
func normParams(lo []float64, y *geometry.Multiset, pl int) (geometry.Vector, float64) {
	d := y.Dim()
	lo = lo[:0]
	var spread float64
	for l := 0; l < d; l++ {
		mn, mx := y.At(0)[l], y.At(0)[l]
		for i := 1; i < pl; i++ {
			v := y.At(i)[l]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		lo = append(lo, mn)
		if s := mx - mn; s > spread {
			spread = s
		}
	}
	return lo, spread
}

// normalizeMultiset maps every member x to (x − lo)/spread.
func normalizeMultiset(y *geometry.Multiset, lo geometry.Vector, spread float64) *geometry.Multiset {
	ny := geometry.NewMultiset(y.Dim())
	inv := 1 / spread
	for i := 0; i < y.Len(); i++ {
		v := y.At(i)
		nv := geometry.NewVector(y.Dim())
		for l := range nv {
			nv[l] = (v[l] - lo[l]) * inv
		}
		if err := ny.Add(nv); err != nil {
			panic(err) // dimensions match by construction
		}
	}
	return ny
}

// denormalizePoint maps a normalized-space point back, in place:
// pt·spread + lo. Every caller owns the point it passes.
func denormalizePoint(pt geometry.Vector, lo geometry.Vector, spread float64) geometry.Vector {
	for l := range pt {
		pt[l] = pt[l]*spread + lo[l]
	}
	return pt
}

// scanTverbergPoint enumerates (f+1)-block partitions of y in canonical
// order and returns the lex-min common point of the first partition whose
// block hulls intersect. Feasibility of the tiny (f+1)-group LP is the
// Tverberg certificate: any common point of the blocks lies in Γ(Y),
// because removing f members leaves at least one block untouched. The walk
// is deterministic and bounded; false means no partition verified within
// the probe budget (the caller falls back to the joint LP).
func scanTverbergPoint(y *geometry.Multiset, f int) (geometry.Vector, bool) {
	const maxProbes = 20000
	var (
		found  geometry.Vector
		probes int
	)
	gs := make([][]geometry.Vector, f+1)
	err := combin.Partitions(y.Len(), f+1, func(blocks [][]int) bool {
		if probes++; probes > maxProbes {
			return false
		}
		for g, blk := range blocks {
			pts := make([]geometry.Vector, len(blk))
			for i, idx := range blk {
				pts[i] = y.At(idx)
			}
			gs[g] = pts
		}
		pt, ok, lerr := hull.LexMinCommonPoint(gs)
		if lerr != nil || !ok {
			return true // keep scanning
		}
		found = pt
		return false
	})
	if err != nil || found == nil {
		return nil, false
	}
	return found, true
}

// lexMinMember returns the lexicographically smallest member of y.
func lexMinMember(y *geometry.Multiset) geometry.Vector {
	best := y.At(0)
	for i := 1; i < y.Len(); i++ {
		if y.At(i).Compare(best) < 0 {
			best = y.At(i)
		}
	}
	return best.Clone()
}
