package core

import (
	"fmt"
	"sort"

	"repro/internal/geometry"
	"repro/internal/safearea"
)

// tuple is one (origin, value) pair inside a B set; the restricted
// algorithms and the AAD-based algorithm both reduce to this shape.
type tuple struct {
	origin int
	value  geometry.Vector
}

// gammaPointOfSet computes the deterministic safe point of one candidate
// set C: the tuples are canonicalized by origin id (so any two correct
// processes holding the same set compute the identical multiset and hence
// the identical point — the zij of Observation 2), then Γ(Φ(C))'s
// deterministic point is returned.
func gammaPointOfSet(set []tuple, f int, method safearea.Method) (geometry.Vector, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	sorted := make([]tuple, len(set))
	copy(sorted, set)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].origin < sorted[j].origin })
	return gammaPointOfSorted(sorted, f, method)
}

// gammaPointOfSorted is gammaPointOfSet for an already origin-sorted set —
// the Engine's cache-miss compute path.
func gammaPointOfSorted(sorted []tuple, f int, method safearea.Method) (geometry.Vector, error) {
	ms, err := viewOfValues(make([]geometry.Vector, 0, len(sorted)), sorted)
	if err != nil {
		return nil, err
	}
	return safearea.PointWith(ms, f, method)
}

// viewOfValues views the tuples' values as a multiset over buf's backing
// array without cloning them: delivered tuple values are immutable and the
// safe-area ladder only reads its input.
func viewOfValues(buf []geometry.Vector, tuples []tuple) (*geometry.Multiset, error) {
	if len(tuples) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	for _, tp := range tuples {
		buf = append(buf, tp.value)
	}
	return geometry.ViewOf(buf)
}

// averageGammaPoints computes Zi = {one safe point per candidate set} and
// returns its average — eq. (9) of the paper — along with |Zi|. It is the
// serial reference implementation; production paths go through
// Engine.AverageGamma / Engine.AverageGammaSets, which stream the subset
// enumeration, parallelize the solves and memoize identical sets while
// producing bit-identical results.
func averageGammaPoints(sets [][]tuple, f int, method safearea.Method) (geometry.Vector, int, error) {
	if len(sets) == 0 {
		return nil, 0, fmt.Errorf("core: no candidate sets")
	}
	points := make([]geometry.Vector, 0, len(sets))
	for _, set := range sets {
		pt, err := gammaPointOfSet(set, f, method)
		if err != nil {
			return nil, 0, fmt.Errorf("core: safe point of candidate set: %w", err)
		}
		points = append(points, pt)
	}
	avg, err := geometry.Mean(points)
	if err != nil {
		return nil, 0, err
	}
	return avg, len(points), nil
}
