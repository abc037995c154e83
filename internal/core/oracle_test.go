package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/geometry"
	"repro/internal/safearea"
)

// The oracle: eq. (9) of the paper computed from its definition, one
// safearea.PointWith per origin-sorted candidate set in combin.Combinations
// order, averaged by geometry.Mean. It shares no walk, key, memo or fan-out
// code with Engine, so an engine result that differs from it in one bit is
// an engine fault.

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
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].origin < sorted[j].origin })
	vals := make([]geometry.Vector, len(sorted))
	for i, tp := range sorted {
		vals[i] = tp.value
	}
	var ms geometry.Multiset
	if err := ms.View(vals); err != nil {
		return nil, err
	}
	return safearea.PointWith(&ms, f, method)
}

// averageGammaPoints computes Zi = {one safe point per candidate set} and
// returns its average — eq. (9) of the paper — along with |Zi|: the oracle
// for Engine.AverageGammaSets.
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

// oracleAverageGamma is the oracle for Engine.AverageGamma: the B set
// sorted by origin, then averageGammaPoints over its k-subsets in rank
// order.
func oracleAverageGamma(tb testing.TB, tuples []tuple, k, f int, method safearea.Method) (geometry.Vector, int, error) {
	tb.Helper()
	sorted := append([]tuple(nil), tuples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].origin < sorted[j].origin })
	return averageGammaPoints(candidateSets(tb, sorted, k), f, method)
}

// resultKey renders a Γ result bit for bit: the point's geometry.AppendKey
// bytes and |Zi|, or the error.
func resultKey(pt geometry.Vector, size int, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%x/%d", geometry.AppendKey(nil, pt), size)
}

// TestAverageGammaMatchesOracle: AverageGamma and AverageGammaSets equal
// the oracle bit for bit at workers ∈ {1, 4, GOMAXPROCS}, on a cold engine
// and again warm, on engines whose Γ-point table or value interner is
// bounded to a handful of entries so that drops land mid-walk, and in
// every regime of the reuse ladder: d = 1 closed forms, Radon and
// Tverberg-lift prefix keys, full keys, the lex-min LP, and the
// Radon-family walk (f = 1, k = d+2 < |B|). Each case is a chain of B
// sets, each one member's value off its predecessor's, handed over in a
// shuffled arrival order — the shape restricted-async rounds produce — and
// the candidate sets reach AverageGammaSets in descending origin order.
func TestAverageGammaMatchesOracle(t *testing.T) {
	type input struct {
		tuples []tuple // arrival order
		sets   [][]tuple
	}
	cases := []struct {
		name       string
		d, f, n, k int
		method     safearea.Method
		family     bool // the Radon-family walk serves AverageGamma
	}{
		{"d1-closed-form", 1, 2, 7, 5, safearea.MethodAuto, false},
		{"radon-prefix", 2, 1, 7, 6, safearea.MethodAuto, false},
		{"lift-prefix", 2, 2, 9, 8, safearea.MethodAuto, false},
		{"lift-full", 2, 2, 9, 7, safearea.MethodAuto, false},
		{"lexmin", 2, 1, 6, 5, safearea.MethodLexMinLP, false},
		{"radon-family-d2", 2, 1, 6, 4, safearea.MethodAuto, true},
		{"radon-family-d3", 3, 1, 7, 5, safearea.MethodAuto, true},
	}
	engines := []struct {
		name           string
		memo, interned int
	}{
		{"default-bounds", maxMemoEntries, maxInternValues},
		{"memo-5", 5, maxInternValues},
		{"interner-9", 64, 9},
	}
	rng := rand.New(rand.NewSource(59))
	var total GammaCounters
	for _, c := range cases {
		if got := safearea.Resolve(c.k, c.d, c.f, c.method) == safearea.MethodRadon && c.k == c.d+2; got != c.family {
			t.Fatalf("%s: Radon-family regime %v, case says %v", c.name, got, c.family)
		}
		const chain = 4
		pool := randomTuples(rng, c.n+chain, c.d)
		tuples := pool[:c.n]
		var inputs []input
		var want []string
		for step := range chain {
			// The next B set: one member's value swapped for a new one.
			tuples = append([]tuple(nil), tuples...)
			tuples[rng.Intn(c.n)].value = pool[c.n+step].value
			arrival := append([]tuple(nil), tuples...)
			rng.Shuffle(len(arrival), func(a, b int) { arrival[a], arrival[b] = arrival[b], arrival[a] })
			sets := candidateSets(t, tuples, c.k)
			for _, set := range sets {
				for a, b := 0, len(set)-1; a < b; a, b = a+1, b-1 {
					set[a], set[b] = set[b], set[a]
				}
			}
			inputs = append(inputs, input{arrival, sets})
			want = append(want, resultKey(oracleAverageGamma(t, arrival, c.k, c.f, c.method)))
			if got := resultKey(averageGammaPoints(sets, c.f, c.method)); got != want[len(want)-1] {
				t.Fatalf("%s: the oracle's two forms disagree: %s and %s", c.name, got, want[len(want)-1])
			}
		}
		for _, bounds := range engines {
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				eng := newEngine(workers, bounds.memo, bounds.interned)
				for _, pass := range []string{"cold", "warm"} {
					for i, in := range inputs {
						label := fmt.Sprintf("%s %s workers=%d %s input %d", c.name, bounds.name, workers, pass, i)
						if got := resultKey(eng.AverageGamma(in.tuples, c.k, c.f, c.method)); got != want[i] {
							t.Fatalf("%s: AverageGamma %s, oracle %s", label, got, want[i])
						}
						if got := resultKey(eng.AverageGammaSets(in.sets, c.f, c.method)); got != want[i] {
							t.Fatalf("%s: AverageGammaSets %s, oracle %s", label, got, want[i])
						}
					}
				}
				if families, _ := eng.fams.memoEntries(); (families > 0) != c.family {
					t.Fatalf("%s %s workers=%d: %d Radon families built", c.name, bounds.name, workers, families)
				}
				if bounds.memo < maxMemoEntries || bounds.interned < maxInternValues {
					if gens := eng.values.Load().gen; gens < 3 {
						t.Fatalf("%s %s workers=%d: %d memo generations, want the bounds to force drops", c.name, bounds.name, workers, gens)
					}
				}
				got := eng.Counters()
				total.CacheHits += got.CacheHits
				total.PrefixHits += got.PrefixHits
				total.RoundHits += got.RoundHits
			}
		}
	}
	// Every reuse layer served some of the results checked above.
	if total.CacheHits == 0 || total.PrefixHits == 0 || total.RoundHits == 0 {
		t.Fatalf("counters over the test %+v: a reuse layer went unexercised", total)
	}
}
