package combin

import (
	"math"
	"math/big"
	"reflect"
	"testing"
)

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1},
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{7, 5, 21}, // the paper's Γ(S) subset count for n=7, f=2
		{10, 3, 120},
		{5, 6, 0},
		{5, -1, 0},
		{-1, 0, 0},
		{52, 26, 495918532948104},
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBinomialSaturates(t *testing.T) {
	if got := Binomial(300, 150); got != math.MaxInt64 {
		t.Errorf("Binomial(300,150) = %d, want saturation", got)
	}
}

func TestCombinationsOrderAndCount(t *testing.T) {
	var got [][]int
	err := Combinations(4, 2, func(idx []int) bool {
		c := make([]int, len(idx))
		copy(c, idx)
		got = append(got, c)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Combinations(4,2) = %v, want %v", got, want)
	}
}

func TestCombinationsCountsMatchBinomial(t *testing.T) {
	for n := 0; n <= 9; n++ {
		for k := 0; k <= n; k++ {
			var count int64
			if err := Combinations(n, k, func([]int) bool { count++; return true }); err != nil {
				t.Fatalf("C(%d,%d): %v", n, k, err)
			}
			if want := Binomial(n, k); count != want {
				t.Errorf("C(%d,%d): enumerated %d, binomial %d", n, k, count, want)
			}
		}
	}
}

func TestCombinationsEarlyStop(t *testing.T) {
	var count int
	err := Combinations(6, 3, func([]int) bool {
		count++
		return count < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("stopped after %d calls, want 4", count)
	}
}

func TestCombinationsInvalid(t *testing.T) {
	if err := Combinations(3, 5, func([]int) bool { return true }); err == nil {
		t.Error("k > n: expected error")
	}
	if err := Combinations(-1, 0, func([]int) bool { return true }); err == nil {
		t.Error("n < 0: expected error")
	}
}

func TestCombinationsZeroK(t *testing.T) {
	calls := 0
	if err := Combinations(5, 0, func(idx []int) bool {
		calls++
		if len(idx) != 0 {
			t.Errorf("want empty combination, got %v", idx)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("C(5,0) enumerated %d times, want 1", calls)
	}
}

// stirling computes S(n,b) by recurrence for cross-checking Partitions.
func stirling(n, b int) int {
	if n == 0 && b == 0 {
		return 1
	}
	if n == 0 || b == 0 || b > n {
		return 0
	}
	return b*stirling(n-1, b) + stirling(n-1, b-1)
}

func TestPartitionsCountsMatchStirling(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for b := 1; b <= n; b++ {
			count := 0
			err := Partitions(n, b, func([][]int) bool { count++; return true })
			if err != nil {
				t.Fatalf("Partitions(%d,%d): %v", n, b, err)
			}
			if want := stirling(n, b); count != want {
				t.Errorf("Partitions(%d,%d) = %d blocks, want S = %d", n, b, count, want)
			}
		}
	}
}

func TestPartitionsBlocksAreValid(t *testing.T) {
	n, b := 6, 3
	seen := make(map[string]bool)
	err := Partitions(n, b, func(blocks [][]int) bool {
		// Every element exactly once; every block non-empty.
		present := make([]bool, n)
		key := ""
		for _, blk := range blocks {
			if len(blk) == 0 {
				t.Fatal("empty block")
			}
			for _, e := range blk {
				if present[e] {
					t.Fatalf("element %d appears twice", e)
				}
				present[e] = true
			}
			key += "|"
			for _, e := range blk {
				key += string(rune('a' + e))
			}
		}
		for e, p := range present {
			if !p {
				t.Fatalf("element %d missing", e)
			}
		}
		if seen[key] {
			t.Fatalf("duplicate partition %s", key)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionsEarlyStop(t *testing.T) {
	count := 0
	if err := Partitions(6, 2, func([][]int) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("stopped after %d, want 3", count)
	}
}

func TestPartitionsInvalid(t *testing.T) {
	if err := Partitions(3, 0, func([][]int) bool { return true }); err == nil {
		t.Error("b=0: expected error")
	}
	if err := Partitions(2, 3, func([][]int) bool { return true }); err == nil {
		t.Error("b>n: expected error")
	}
}

func TestPartitionsSingle(t *testing.T) {
	count := 0
	if err := Partitions(1, 1, func(blocks [][]int) bool {
		count++
		if len(blocks) != 1 || len(blocks[0]) != 1 || blocks[0][0] != 0 {
			t.Errorf("blocks = %v", blocks)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestUnrankMatchesEnumeration(t *testing.T) {
	for _, c := range []struct{ n, k int }{{5, 2}, {7, 5}, {9, 3}, {6, 6}, {4, 1}, {3, 0}} {
		var rank int64
		buf := make([]int, c.k)
		err := Combinations(c.n, c.k, func(idx []int) bool {
			got, err := Unrank(c.n, c.k, rank, buf)
			if err != nil {
				t.Fatalf("Unrank(%d,%d,%d): %v", c.n, c.k, rank, err)
			}
			for i := range idx {
				if got[i] != idx[i] {
					t.Fatalf("Unrank(%d,%d,%d) = %v, enumeration gives %v", c.n, c.k, rank, got, idx)
				}
			}
			rank++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if rank != Binomial(c.n, c.k) {
			t.Fatalf("enumerated %d combinations, want C(%d,%d)=%d", rank, c.n, c.k, Binomial(c.n, c.k))
		}
	}
}

// TestNextStepsRankOrder: from every rank's unranked subset, Next reaches
// the next rank's subset, and it reports false, leaving the subset as it
// was, only at the last rank — so a run of ranks walked from one Unrank
// equals the runs unranked one by one.
func TestNextStepsRankOrder(t *testing.T) {
	for _, c := range []struct{ n, k int }{{5, 2}, {7, 5}, {9, 3}, {6, 6}, {4, 1}, {3, 0}, {11, 7}} {
		total := Binomial(c.n, c.k)
		for r := int64(0); r < total; r++ {
			idx, err := Unrank(c.n, c.k, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			last := append([]int(nil), idx...)
			ok := Next(c.n, idx)
			if r == total-1 {
				if ok || !reflect.DeepEqual(idx, last) {
					t.Fatalf("C(%d,%d): Next past the last rank = %v, %v; want false, %v", c.n, c.k, ok, idx, last)
				}
				continue
			}
			want, _ := Unrank(c.n, c.k, r+1, nil)
			if !ok || !reflect.DeepEqual(idx, want) {
				t.Fatalf("C(%d,%d) rank %d: Next = %v, %v; want true, %v", c.n, c.k, r, ok, idx, want)
			}
		}
	}
}

func TestUnrankErrors(t *testing.T) {
	if _, err := Unrank(5, 2, 10, nil); err == nil {
		t.Error("rank = C(5,2): expected out-of-range error")
	}
	if _, err := Unrank(5, 2, -1, nil); err == nil {
		t.Error("negative rank: expected error")
	}
	if _, err := Unrank(2, 3, 0, nil); err == nil {
		t.Error("k > n: expected error")
	}
}

func TestBinomialSmallNPathMatchesBig(t *testing.T) {
	// The int64 fast path (n ≤ 40) must agree with the big.Int reference.
	for n := 0; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			want := new(big.Int).Binomial(int64(n), int64(k))
			if got := Binomial(n, k); !want.IsInt64() || got != want.Int64() {
				t.Fatalf("Binomial(%d,%d) = %d, want %s", n, k, got, want)
			}
		}
	}
}

// TestRankRoundTrip checks Rank is the inverse of Unrank and agrees with the
// lexicographic enumeration order.
func TestRankRoundTrip(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for k := 0; k <= n; k++ {
			want := int64(0)
			err := Combinations(n, k, func(idx []int) bool {
				r, err := Rank(n, idx)
				if err != nil {
					t.Fatalf("rank(%v): %v", idx, err)
				}
				if r != want {
					t.Fatalf("n=%d k=%d: rank(%v)=%d, want %d", n, k, idx, r, want)
				}
				back, err := Unrank(n, k, r, nil)
				if err != nil {
					t.Fatalf("unrank(%d): %v", r, err)
				}
				for i := range idx {
					if back[i] != idx[i] {
						t.Fatalf("unrank(rank(%v)) = %v", idx, back)
					}
				}
				want++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := Rank(4, []int{2, 1}); err == nil {
		t.Fatal("want error for non-ascending index set")
	}
	if _, err := Rank(4, []int{1, 4}); err == nil {
		t.Fatal("want error for out-of-range index")
	}
}
