package bvc

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/safearea"
	"repro/internal/tverberg"
)

// validatePoints checks a public point set for shape and finiteness and
// converts it.
func validatePoints(points []Vector) (*geometry.Multiset, error) {
	if len(points) == 0 {
		return nil, errors.New("bvc: empty point set")
	}
	d := len(points[0])
	if d == 0 {
		return nil, errors.New("bvc: zero-dimensional points")
	}
	ms := geometry.NewMultiset(d)
	for i, p := range points {
		gp := geometry.Vector(p)
		if gp.Dim() != d {
			return nil, fmt.Errorf("bvc: point %d has dimension %d, want %d", i, gp.Dim(), d)
		}
		if !gp.IsFinite() {
			return nil, fmt.Errorf("bvc: point %d has non-finite coordinates", i)
		}
		if err := ms.Add(gp); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// SafePoint returns a deterministic point of the safe area
//
//	Γ(Y) = ∩_{T ⊆ Y, |T| = |Y|−f} conv(T)
//
// for the multiset Y given by points. Any two callers passing identical
// points (same order, same values) obtain the identical result — the
// property the consensus algorithms rely on. Lemma 1 guarantees existence
// whenever len(points) ≥ (d+1)f+1; below that threshold Γ may be empty, in
// which case an error is returned.
func SafePoint(points []Vector, f int) (Vector, error) {
	return SafePointWith(points, f, MethodAuto)
}

// SafePointWith is SafePoint with an explicit computation strategy.
func SafePointWith(points []Vector, f int, method PointMethod) (Vector, error) {
	ms, err := validatePoints(points)
	if err != nil {
		return nil, err
	}
	m, err := Config{D: ms.Dim(), Method: method}.method()
	if err != nil {
		return nil, err
	}
	pt, err := safearea.PointWith(ms, f, m)
	if err != nil {
		return nil, err
	}
	return fromGeometry(pt), nil
}

// SafeAreaEmpty reports whether Γ(Y) is empty for the given fault bound.
func SafeAreaEmpty(points []Vector, f int) (bool, error) {
	ms, err := validatePoints(points)
	if err != nil {
		return false, err
	}
	return safearea.IsEmpty(ms, f)
}

// SafeAreaContains reports whether z lies in Γ(Y) (within a small geometric
// tolerance). The C(|Y|, f) hull-membership LPs run across GOMAXPROCS
// workers; the verdict is identical to a serial evaluation.
func SafeAreaContains(points []Vector, f int, z Vector) (bool, error) {
	ms, err := validatePoints(points)
	if err != nil {
		return false, err
	}
	return safearea.ContainsParallel(ms, f, geometry.Vector(z), 0, runtime.GOMAXPROCS(0))
}

// InConvexHull reports whether z lies in the convex hull of points (within
// a small geometric tolerance).
func InConvexHull(points []Vector, z Vector) (bool, error) {
	ms, err := validatePoints(points)
	if err != nil {
		return false, err
	}
	if len(z) != ms.Dim() {
		return false, fmt.Errorf("bvc: query dimension %d, want %d", len(z), ms.Dim())
	}
	return hull.Contains(ms.Points(), geometry.Vector(z), 0)
}

// TverbergPartition searches for a partition of points into `parts`
// non-empty blocks whose convex hulls share a common point (Tverberg's
// theorem guarantees one when len(points) ≥ (d+1)(parts−1)+1). It returns
// the blocks as index sets plus a common (Tverberg) point, and reports
// found=false if no partition exists. The search is exhaustive and only
// accepts small inputs (≤ 14 points).
func TverbergPartition(points []Vector, parts int) (blocks [][]int, point Vector, found bool, err error) {
	ms, err := validatePoints(points)
	if err != nil {
		return nil, nil, false, err
	}
	part, ok, err := tverberg.Search(ms, parts)
	if err != nil {
		return nil, nil, false, err
	}
	if !ok {
		return nil, nil, false, nil
	}
	return part.Blocks, fromGeometry(part.Point), true, nil
}

// RadonPartition partitions exactly d+2 points in R^d into two blocks with
// intersecting convex hulls and returns a common (Radon) point — the f=1
// fast path of the Tverberg machinery, computed in O(d³).
func RadonPartition(points []Vector) (blocks [][]int, point Vector, err error) {
	gs := toGeometrySlice(points)
	part, err := tverberg.Radon(gs)
	if err != nil {
		return nil, nil, err
	}
	return part.Blocks, fromGeometry(part.Point), nil
}
