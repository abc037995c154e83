// Package combin provides the combinatorial enumeration primitives used by
// the consensus algorithms: k-subsets of an index range (the paper
// enumerates all (n−f)-size subsets T ⊆ S and C ⊆ Bi[t]), binomial
// coefficients, and ordered set partitions (used by the exhaustive Tverberg
// partition search).
package combin

import (
	"fmt"
	"math"
	"math/big"
)

// pascal holds C(n, k) for n ≤ 40 (C(40, 20) ≈ 1.4e11 fits int64 with room
// to spare). It is filled once at package initialization and only read
// after, so the hot enumeration and unranking paths get a binomial from one
// load, with no big.Int allocation and no loop.
var pascal = func() (t [41][41]int64) {
	for n := range t {
		t[n][0] = 1
		for k := 1; k <= n; k++ {
			t[n][k] = t[n-1][k-1] + t[n-1][k]
		}
	}
	return t
}()

// Binomial returns C(n, k). It returns 0 when k < 0 or k > n. The result
// saturates at math.MaxInt64 if it would overflow.
func Binomial(n, k int) int64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if n < len(pascal) {
		return pascal[n][k]
	}
	z := new(big.Int).Binomial(int64(n), int64(k))
	if !z.IsInt64() {
		return math.MaxInt64
	}
	return z.Int64()
}

// Combinations calls fn with each k-subset of {0, 1, …, n−1} in
// lexicographic order. The slice passed to fn is reused between calls; fn
// must copy it if it retains it. Enumeration stops early if fn returns
// false. It returns an error for invalid k.
func Combinations(n, k int, fn func(indices []int) bool) error {
	if k < 0 || n < 0 || k > n {
		return fmt.Errorf("combin: invalid combination C(%d,%d)", n, k)
	}
	if k == 0 {
		fn([]int{})
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !fn(idx) || !Next(n, idx) {
			return nil
		}
	}
}

// Next advances idx, a k-subset of {0,…,n−1} in ascending order, to its
// successor in lexicographic order (the enumeration order of Combinations
// and the rank order of Unrank) and reports whether there was one; idx is
// left unchanged after the last subset. Unranking once and then stepping
// with Next walks a run of consecutive ranks in O(1) amortized per subset.
func Next(n int, idx []int) bool {
	k := len(idx)
	i := k - 1
	for i >= 0 && idx[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < k; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// Unrank writes the combination of lexicographic rank r (0-based, matching
// the enumeration order of Combinations) among the k-subsets of {0,…,n−1}
// into buf and returns it. buf is reused when it has capacity ≥ k. Unranking
// gives parallel consumers random access into the combination sequence
// without materializing it: workers pull ranks from a shared counter and
// reconstruct their subset in O(n).
func Unrank(n, k int, r int64, buf []int) ([]int, error) {
	if k < 0 || n < 0 || k > n {
		return nil, fmt.Errorf("combin: invalid combination C(%d,%d)", n, k)
	}
	if r < 0 || r >= Binomial(n, k) {
		return nil, fmt.Errorf("combin: rank %d out of range for C(%d,%d)", r, n, k)
	}
	if cap(buf) < k {
		buf = make([]int, k)
	}
	buf = buf[:k]
	x := 0
	for i := 0; i < k; i++ {
		for {
			// Combinations starting with x at position i: C(n−1−x, k−1−i).
			c := Binomial(n-1-x, k-1-i)
			if r < c {
				buf[i] = x
				x++
				break
			}
			r -= c
			x++
		}
	}
	return buf, nil
}

// Rank returns the position of the ascending index set idx in the
// lexicographic enumeration of k-subsets of {0, …, n−1} — the inverse of
// Unrank. Consumers that compute subsets in a non-lexicographic order use
// it to place results in the rank-ordered layout the deterministic
// reductions require.
func Rank(n int, idx []int) (int64, error) {
	k := len(idx)
	if k > n {
		return 0, fmt.Errorf("combin: rank of %d-subset of %d elements", k, n)
	}
	var r int64
	prev := -1
	for i, v := range idx {
		if v <= prev || v >= n {
			return 0, fmt.Errorf("combin: rank needs an ascending index set in [0,%d), got %v", n, idx)
		}
		// Count the subsets that agree on idx[:i] but pick a smaller element
		// at position i.
		for c := prev + 1; c < v; c++ {
			r += Binomial(n-c-1, k-i-1)
		}
		prev = v
	}
	return r, nil
}

// Partitions calls fn with each partition of {0,…,n−1} into exactly b
// non-empty blocks. Blocks are presented in a canonical order (each block
// holds ascending indices; blocks are ordered by their smallest member).
// The outer and inner slices passed to fn are reused; copy to retain.
// Enumeration stops early if fn returns false.
//
// The number of such partitions is the Stirling number S(n,b); this is only
// tractable for small n and is used by the exhaustive Tverberg search and by
// tests validating the fast paths.
func Partitions(n, b int, fn func(blocks [][]int) bool) error {
	if n < 0 || b < 1 || b > n {
		return fmt.Errorf("combin: invalid partition of %d elements into %d blocks", n, b)
	}
	// assign[i] = block of element i, in restricted-growth form:
	// assign[0] = 0 and assign[i] ≤ max(assign[:i]) + 1.
	assign := make([]int, n)
	blocks := make([][]int, b)
	for i := range blocks {
		blocks[i] = make([]int, 0, n)
	}

	var rec func(i, maxUsed int) bool
	rec = func(i, maxUsed int) bool {
		if i == n {
			if maxUsed != b-1 {
				return true // not all blocks used; skip
			}
			for j := range blocks {
				blocks[j] = blocks[j][:0]
			}
			for e, blk := range assign {
				blocks[blk] = append(blocks[blk], e)
			}
			return fn(blocks)
		}
		// Elements remaining must still be able to fill all b blocks.
		limit := maxUsed + 1
		if limit > b-1 {
			limit = b - 1
		}
		for blk := 0; blk <= limit; blk++ {
			assign[i] = blk
			next := maxUsed
			if blk > maxUsed {
				next = blk
			}
			// Prune: blocks still unused must fit in remaining slots.
			if (b - 1 - next) > (n - 1 - i) {
				continue
			}
			if !rec(i+1, next) {
				return false
			}
		}
		return true
	}
	rec(1, 0) // element 0 is always in block 0
	return nil
}
