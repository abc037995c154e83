package core

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/safearea"
)

func randomTuples(rng *rand.Rand, n, d int) []tuple {
	out := make([]tuple, n)
	for i := range out {
		v := geometry.NewVector(d)
		for l := range v {
			v[l] = rng.Float64()
		}
		out[i] = tuple{origin: i, value: v}
	}
	return out
}

// TestEngineDeterminismAcrossWorkersAndCache: the Zi average must be
// byte-identical (bit-exact, via geometry.Key) for every engine
// configuration — workers ∈ {1, 4, GOMAXPROCS} × memoization on/off — and
// across repeated calls on the same engine (cache hits), over random
// (n, d, f) instances. This is the property that makes the engine knobs
// safe: consensus correctness depends on all correct processes computing
// identical points.
func TestEngineDeterminismAcrossWorkersAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	cases := []struct{ d, f int }{{1, 2}, {2, 1}, {2, 2}, {3, 1}}
	for _, c := range cases {
		n := MinProcesses(VariantRestrictedSync, c.d, c.f)
		tuples := randomTuples(rng, n, c.d)
		k := n - c.f
		var wantKey string
		var wantSize int
		for _, workers := range workerSets {
			for _, memo := range []bool{true, false} {
				eng := NewEngine(workers, memo)
				for rep := 0; rep < 2; rep++ { // rep 1 hits the memo table
					got, size, err := eng.AverageGamma(tuples, k, c.f, safearea.MethodAuto)
					if err != nil {
						t.Fatalf("d=%d f=%d workers=%d memo=%v: %v", c.d, c.f, workers, memo, err)
					}
					key := geometry.Key(got)
					if wantKey == "" {
						wantKey, wantSize = key, size
						continue
					}
					if key != wantKey || size != wantSize {
						t.Fatalf("d=%d f=%d workers=%d memo=%v rep=%d: Zi average diverged: %v (size %d)",
							c.d, c.f, workers, memo, rep, got, size)
					}
				}
			}
		}
	}
}

// TestEngineSafePointMatchesSafearea: the memoized SafePoint must equal the
// direct safearea computation bit-for-bit, including on cache hits.
func TestEngineSafePointMatchesSafearea(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ d, f int }{{2, 1}, {2, 2}, {3, 1}} {
		n := MinProcesses(VariantExactSync, c.d, c.f)
		ms := geometry.NewMultiset(c.d)
		for i := 0; i < n; i++ {
			v := geometry.NewVector(c.d)
			for l := range v {
				v[l] = rng.Float64()
			}
			if err := ms.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		want, err := safearea.PointWith(ms, c.f, safearea.MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(2, true)
		for rep := 0; rep < 3; rep++ {
			got, err := eng.SafePoint(ms, c.f, safearea.MethodAuto)
			if err != nil {
				t.Fatal(err)
			}
			if geometry.Key(got) != geometry.Key(want) {
				t.Fatalf("d=%d f=%d rep=%d: engine %v != safearea %v", c.d, c.f, rep, got, want)
			}
		}
	}
}

// TestEngineMatchesReferenceAverage: the streaming engine must reproduce the
// eager serial reference (subset materialization + geometry.Mean) exactly.
func TestEngineMatchesReferenceAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// n = (d+2)f+1 as in restricted sync, so every (n−f)-subset satisfies
	// Lemma 1's (d+1)f+1 bound and Γ is non-empty.
	n, d, f := 7, 1, 2
	tuples := randomTuples(rng, n, d)
	k := n - f

	// Reference: materialize every subset, then average.
	var sets [][]tuple
	idx := make([]int, k)
	var recurse func(start, pos int)
	recurse = func(start, pos int) {
		if pos == k {
			set := make([]tuple, k)
			for i, j := range idx {
				set[i] = tuples[j]
			}
			sets = append(sets, set)
			return
		}
		for j := start; j <= n-(k-pos); j++ {
			idx[pos] = j
			recurse(j+1, pos+1)
		}
	}
	recurse(0, 0)
	want, wantSize, err := averageGammaPoints(sets, f, safearea.MethodAuto)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		eng := NewEngine(workers, true)
		got, size, err := eng.AverageGamma(tuples, k, f, safearea.MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		if size != wantSize || geometry.Key(got) != geometry.Key(want) {
			t.Fatalf("workers=%d: engine %v (|Zi|=%d) != reference %v (|Zi|=%d)", workers, got, size, want, wantSize)
		}
		gotSets, sizeSets, err := eng.AverageGammaSets(sets, f, safearea.MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		if sizeSets != wantSize || geometry.Key(gotSets) != geometry.Key(want) {
			t.Fatalf("workers=%d: AverageGammaSets diverged from reference", workers)
		}
	}
}

// TestEngineCountersExactAcrossWorkers: the Γ-reuse counters follow one
// rule — a fresh computation is a solve, error or not; a recalled result is
// a hit only when it carries no error — so on a fresh engine the same inputs
// produce the same counter deltas at every worker count, however the
// per-worker tallies interleave. Every engine counts only its own work, so
// the test runs beside any other.
func TestEngineCountersExactAcrossWorkers(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, c := range []struct{ d, f int }{{1, 2}, {2, 1}, {2, 2}, {3, 1}} {
		n := MinProcesses(VariantRestrictedSync, c.d, c.f)
		tuples := randomTuples(rng, n, c.d)
		k := n - c.f
		var sets [][]tuple
		if err := combin.Combinations(n, k, func(idx []int) bool {
			set := make([]tuple, k)
			for i, j := range idx {
				set[i] = tuples[j]
			}
			sets = append(sets, set)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var want GammaCounters
		for i, workers := range workerSets {
			eng := NewEngine(workers, true)
			for rep := 0; rep < 2; rep++ { // rep 1 is a round hit
				if _, _, err := eng.AverageGamma(tuples, k, c.f, safearea.MethodAuto); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := eng.AverageGammaSets(sets, c.f, safearea.MethodAuto); err != nil {
				t.Fatal(err)
			}
			got := eng.Counters()
			if i == 0 {
				if got.Solves == 0 || got.RoundHits != 1 {
					t.Fatalf("d=%d f=%d: counters %+v, want solves and one round hit", c.d, c.f, got)
				}
				want = got
			} else if got != want {
				t.Fatalf("d=%d f=%d workers=%d: counters %+v, workers=1 gave %+v", c.d, c.f, workers, got, want)
			}
		}
	}

	// A candidate set whose solve errors (one member, f = 1: no subset
	// survives) counts one solve, then nothing on every recall.
	bad := [][]tuple{randomTuples(rng, 1, 2)}
	ms, err := geometry.MultisetOf(bad[0][0].value)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerSets {
		// Two engines: SafePoint shares the set path's full-multiset key.
		sets, single := NewEngine(workers, true), NewEngine(workers, true)
		for rep, want := range []GammaCounters{{Solves: 1}, {}, {}} {
			before := sets.Counters()
			if _, _, err := sets.AverageGammaSets(bad, 1, safearea.MethodAuto); err == nil {
				t.Fatal("one-member candidate set with f = 1 solved")
			}
			if got := sets.Counters().Sub(before); got != want {
				t.Fatalf("workers=%d AverageGammaSets rep %d: counters %+v, want %+v", workers, rep, got, want)
			}
			before = single.Counters()
			if _, err := single.SafePoint(ms, 1, safearea.MethodAuto); err == nil {
				t.Fatal("one-member multiset with f = 1 solved")
			}
			if got := single.Counters().Sub(before); got != want {
				t.Fatalf("workers=%d SafePoint rep %d: counters %+v, want %+v", workers, rep, got, want)
			}
		}
	}
}

// BenchmarkEngineMemo measures one Γ-point memo lookup with a
// candidate-set-sized key: hit-parallel recalls a warmed key set from every
// P at once (the lock-free path), miss inserts a fresh key per iteration
// (hash, lock, key copy and node allocation, amortized resizes and drops).
func BenchmarkEngineMemo(b *testing.B) {
	b.Run("hit-parallel", func(b *testing.B) {
		eng := NewEngine(0, true)
		keys := make([][]byte, 4096)
		for i := range keys {
			keys[i] = memoTestKey(nil, i)
			eng.memo.get(keys[i])
		}
		var goroutine atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(goroutine.Add(1)) * 997
			for pb.Next() {
				if eng.memo.get(keys[i%len(keys)]) == nil {
					b.Error("nil entry")
					return
				}
				i++
			}
		})
	})
	b.Run("miss", func(b *testing.B) {
		eng := NewEngine(1, true)
		key := memoTestKey(nil, 0)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			binary.BigEndian.PutUint64(key[len(key)-8:], uint64(i))
			eng.memo.get(key)
		}
	})
}

// BenchmarkAverageGammaCachedVsUncached measures the value of the Γ-point
// memoization on the restricted-round hot path: one Zi construction for a
// fixed B set (n=9, d=2, f=2 → C(9,7)=36 lex-min LP solves uncached, 36
// table hits cached).
func BenchmarkAverageGammaCachedVsUncached(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, d, f := 9, 2, 2 // (d+2)f+1: the restricted-sync bound
	tuples := randomTuples(rng, n, d)
	k := n - f

	b.Run("uncached", func(b *testing.B) {
		eng := NewEngine(1, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.AverageGamma(tuples, k, f, safearea.MethodLexMinLP); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := NewEngine(1, true)
		if _, _, err := eng.AverageGamma(tuples, k, f, safearea.MethodLexMinLP); err != nil {
			b.Fatal(err) // warm the table outside the timed loop
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.AverageGamma(tuples, k, f, safearea.MethodLexMinLP); err != nil {
				b.Fatal(err)
			}
		}
	})
}
