// Per-B-set incremental Γ walk for the Radon regime: the restricted-async
// algorithm at f = 1 reduces each round to the mean of the Radon points of
// every (d+2)-subset of a process's B set. B sets of sibling processes in
// one round are single-member deltas of each other (each holds "everyone
// except one straggler"), so the C(|B|−1, d+2) subsets avoiding the delta
// — the vast majority — have identical Γ-points. RadonFamily materializes
// one B set's subset points in canonical (lexicographic) order and can be
// built from a sibling family by recomputing only the subsets containing
// the changed slot; reused points are bit-identical to a from-scratch walk
// because they ARE the from-scratch points (the family is a
// representation, not an approximation — the same contract as
// Incremental).
package safearea

import (
	"fmt"

	"repro/internal/combin"
	"repro/internal/geometry"
)

// RadonFamily holds the Γ-points of every k-subset of a canonical
// (origin-sorted) candidate pool, in lexicographic subset order. It is
// immutable after construction; core.Engine shares families across
// goroutines and rounds.
type RadonFamily struct {
	f, k   int
	method Method
	vals   []geometry.Vector // owned clones of the pool members, in order
	pts    []geometry.Vector // Γ-point per lex-rank subset
}

// newFamilyShell validates the pool and prepares the point slots.
func newFamilyShell(vals []geometry.Vector, f, k int, method Method) (*RadonFamily, error) {
	n := len(vals)
	if k <= 0 || k > n {
		return nil, fmt.Errorf("safearea: radon family subset size %d of %d members", k, n)
	}
	total := combin.Binomial(n, k)
	if total <= 0 {
		return nil, fmt.Errorf("safearea: radon family C(%d, %d) overflow", n, k)
	}
	rf := &RadonFamily{f: f, k: k, method: method,
		vals: make([]geometry.Vector, n), pts: make([]geometry.Vector, total)}
	for i, v := range vals {
		rf.vals[i] = v.Clone()
	}
	return rf, nil
}

// pointOf computes one subset's Γ-point through the identical ladder the
// engine's from-scratch path uses (PointWith on the subset multiset), so
// family points are bit-identical to from-scratch solves.
func (rf *RadonFamily) pointOf(idx []int) (geometry.Vector, error) {
	ms := geometry.NewMultiset(rf.vals[0].Dim())
	for _, j := range idx {
		if err := ms.Add(rf.vals[j]); err != nil {
			return nil, err
		}
	}
	return PointWith(ms, rf.f, rf.method)
}

// NewRadonFamily materializes the family from scratch. The solved count is
// the number of Γ-point computations performed (every subset).
func NewRadonFamily(vals []geometry.Vector, f, k int, method Method) (*RadonFamily, int, error) {
	rf, err := newFamilyShell(vals, f, k, method)
	if err != nil {
		return nil, 0, err
	}
	r := 0
	var perr error
	err = combin.Combinations(len(rf.vals), k, func(idx []int) bool {
		pt, err := rf.pointOf(idx)
		if err != nil {
			perr = err
			return false
		}
		rf.pts[r] = pt
		r++
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	if perr != nil {
		return nil, 0, perr
	}
	return rf, len(rf.pts), nil
}

// NewRadonFamilyFrom builds the family for a pool that equals prev's pool
// with member jOld removed and a new value inserted at slot iNew (so
// vals[iNew] is the new member and the remaining members appear in both
// pools in the same order). Subsets avoiding iNew reuse prev's points
// outright; only subsets containing the new member are solved. It returns
// the reused and solved counts alongside the family.
func NewRadonFamilyFrom(prev *RadonFamily, vals []geometry.Vector, iNew, jOld int, f, k int, method Method) (*RadonFamily, int, int, error) {
	if prev == nil || prev.f != f || prev.k != k || prev.method != method ||
		len(prev.vals) != len(vals) {
		rf, solved, err := NewRadonFamily(vals, f, k, method)
		return rf, 0, solved, err
	}
	rf, err := newFamilyShell(vals, f, k, method)
	if err != nil {
		return nil, 0, 0, err
	}
	n := len(vals)
	mapped := make([]int, k)
	r := 0
	reused, solved := 0, 0
	var perr error
	err = combin.Combinations(n, k, func(idx []int) bool {
		containsNew := false
		for _, j := range idx {
			if j == iNew {
				containsNew = true
				break
			}
		}
		if !containsNew {
			// Map the slots through the common-member correspondence:
			// slot s here is common index s (s < iNew) or s−1 (s > iNew);
			// common index c is prev slot c (c < jOld) or c+1 (c ≥ jOld).
			for t, s := range idx {
				c := s
				if s > iNew {
					c = s - 1
				}
				ps := c
				if c >= jOld {
					ps = c + 1
				}
				mapped[t] = ps
			}
			prevRank, err := combin.Rank(n, mapped)
			if err != nil {
				perr = err
				return false
			}
			rf.pts[r] = prev.pts[prevRank]
			reused++
			r++
			return true
		}
		pt, err := rf.pointOf(idx)
		if err != nil {
			perr = err
			return false
		}
		rf.pts[r] = pt
		solved++
		r++
		return true
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if perr != nil {
		return nil, 0, 0, perr
	}
	return rf, reused, solved, nil
}

// MeanPoint returns the average of the family's points in lexicographic
// subset order — bit-identical to the engine's serial reduction over the
// same canonical pool — along with the family size.
func (rf *RadonFamily) MeanPoint() (geometry.Vector, int, error) {
	avg, err := geometry.Mean(rf.pts)
	if err != nil {
		return nil, 0, err
	}
	return avg, len(rf.pts), nil
}
