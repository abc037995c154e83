package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/raceflag"
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
// byte-identical (bit-exact, via geometry.AppendKey) to the eq. (9) oracle
// for every worker count ∈ {1, 4, GOMAXPROCS}, on a fresh engine and
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
		want := resultKey(oracleAverageGamma(t, tuples, k, c.f, safearea.MethodAuto))
		for _, workers := range workerSets {
			eng := NewEngine(workers)
			for rep := 0; rep < 2; rep++ { // rep 1 hits the memo table
				if got := resultKey(eng.AverageGamma(tuples, k, c.f, safearea.MethodAuto)); got != want {
					t.Fatalf("d=%d f=%d workers=%d rep=%d: Zi average %s, oracle %s", c.d, c.f, workers, rep, got, want)
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
		eng := NewEngine(2)
		for rep := 0; rep < 3; rep++ {
			got, err := eng.SafePoint(ms, c.f, safearea.MethodAuto)
			if err != nil {
				t.Fatal(err)
			}
			if string(geometry.AppendKey(nil, got)) != string(geometry.AppendKey(nil, want)) {
				t.Fatalf("d=%d f=%d rep=%d: engine %v != safearea %v", c.d, c.f, rep, got, want)
			}
		}
	}
}

// TestEngineSafePointHitAllocs: Exact BVC's n processes all ask SafePoint
// for the same multiset, so after the first solve each call is a hit, and
// a hit allocates only the copy it returns — the memo key is built in
// pooled scratch.
func TestEngineSafePointHitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d, f := 2, 1
	ms := geometry.NewMultiset(d)
	for _, tp := range randomTuples(rand.New(rand.NewSource(5)), MinProcesses(VariantExactSync, d, f), d) {
		if err := ms.Add(tp.value); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(1)
	if _, err := eng.SafePoint(ms, f, safearea.MethodAuto); err != nil {
		t.Fatal(err)
	}
	before := eng.Counters()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.SafePoint(ms, f, safearea.MethodAuto); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("SafePoint hit: %v allocs, want 1 (the returned Clone)", allocs)
	}
	if c := eng.Counters().Sub(before); c.Solves != 0 || c.CacheHits != 101 {
		t.Errorf("counters over the hits: %+v, want 101 cache hits and no solve", c)
	}
}

// TestEngineMatchesReferenceAverage: the streaming engine must reproduce the
// eager serial reference (subset materialization + geometry.Mean) exactly,
// through AverageGamma and AverageGammaSets.
func TestEngineMatchesReferenceAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// n = (d+2)f+1 as in restricted sync, so every (n−f)-subset satisfies
	// Lemma 1's (d+1)f+1 bound and Γ is non-empty.
	n, d, f := 7, 1, 2
	tuples := randomTuples(rng, n, d)
	k := n - f
	sets := candidateSets(t, tuples, k)
	want := resultKey(averageGammaPoints(sets, f, safearea.MethodAuto))

	for _, workers := range []int{1, 3} {
		eng := NewEngine(workers)
		if got := resultKey(eng.AverageGamma(tuples, k, f, safearea.MethodAuto)); got != want {
			t.Fatalf("workers=%d: engine %s != reference %s", workers, got, want)
		}
		if got := resultKey(eng.AverageGammaSets(sets, f, safearea.MethodAuto)); got != want {
			t.Fatalf("workers=%d: AverageGammaSets %s diverged from reference %s", workers, got, want)
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
			eng := NewEngine(workers)
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
		sets, single := NewEngine(workers), NewEngine(workers)
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

// BenchmarkEngineMemo measures one Γ-point memo lookup of a
// sim-rasync-f2-shaped candidate set (seven members, d = 2, f = 2, drawn
// from a pool of 64 values): building its key — the walk's interning
// included — and probing the table. hit-parallel recalls a warmed set of
// keys from every P at once (the lock-free path), miss inserts a fresh set
// per iteration (lock, record carving, amortized resizes and drops; no
// point is computed). Both report B/entry, the key bytes the table stores
// per entry, and retained-B/entry, the bytes its store holds per entry:
// slots, records with their inline keys, key and float chunks.
func BenchmarkEngineMemo(b *testing.B) {
	const poolSize, k, d, f = 64, 7, 2, 2
	pool := randomTuples(rand.New(rand.NewSource(1)), poolSize, d)
	set := func(sel []tuple, idx []int) []tuple {
		sel = sel[:0]
		for _, j := range idx {
			sel = append(sel, pool[j])
		}
		return sel
	}
	keyOf := func(sc *gammaScratch, set []tuple) []byte {
		sc.startSet()
		for i := range set {
			sc.addMember(set, i)
		}
		key, _ := sc.setKey(len(set))
		return key
	}
	report := func(b *testing.B, eng *Engine) {
		n, keyBytes := eng.memo.memoKeyBytes()
		_, held := eng.memo.memoRetained()
		b.ReportMetric(float64(keyBytes)/float64(n), "B/entry")
		b.ReportMetric(float64(held)/float64(n), "retained-B/entry")
	}
	b.Run("hit-parallel", func(b *testing.B) {
		eng := NewEngine(0)
		sets := make([][]tuple, 4096)
		sc := eng.scratch(nil, 1, k, poolSize, d, f, safearea.MethodAuto)
		solved := func() (geometry.Vector, uint32, error) { return geometry.Vector{1, 2}, 0, nil }
		for i := range sets {
			idx, err := combin.Unrank(poolSize, k, int64(i)*7919, nil)
			if err != nil {
				b.Fatal(err)
			}
			sets[i] = set(nil, idx)
			solveOnce(eng.memo, keyOf(&sc, sets[i]), d, solved)
		}
		var goroutine atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			sc := eng.scratch(nil, 1, k, poolSize, d, f, safearea.MethodAuto)
			i := int(goroutine.Add(1)) * 997
			for pb.Next() {
				if _, id, _, inserted := eng.memo.get(keyOf(&sc, sets[i%len(sets)])); inserted || id >= uint32(len(sets)) {
					b.Error("warmed set missed")
					return
				}
				i++
			}
		})
		b.StopTimer()
		report(b, eng)
	})
	b.Run("miss", func(b *testing.B) {
		eng := NewEngine(1)
		sc := eng.scratch(nil, 1, k, poolSize, d, f, safearea.MethodAuto)
		idx := []int{0, 1, 2, 3, 4, 5, 6}
		var sel []tuple
		b.ReportAllocs()
		for b.Loop() {
			combin.Next(poolSize, idx)
			sel = set(sel, idx)
			eng.memo.get(keyOf(&sc, sel))
		}
		report(b, eng)
	})
}

// BenchmarkAverageGammaColdVsWarm measures the value of the Γ-point
// memoization on the restricted-round hot path, for a fixed B set (n=9,
// d=2, f=2 → C(9,7)=36 candidate sets): cold resets the engine before
// every iteration, so each is one Zi construction, 36 lex-min LP solves;
// warm walks the same 36 sets as AverageGammaSets over a warm per-set
// memo, 36 table hits and no solve. Warm runs at one worker and at
// GOMAXPROCS: an all-hit walk starts no helper, so the two read alike, and
// a gap between them is the fan-out's fixed cost.
func BenchmarkAverageGammaColdVsWarm(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, d, f := 9, 2, 2 // (d+2)f+1: the restricted-sync bound
	tuples := randomTuples(rng, n, d)
	k := n - f

	b.Run("cold", func(b *testing.B) {
		eng := NewEngine(1)
		b.ReportAllocs()
		for b.Loop() {
			eng.Reset()
			if _, _, err := eng.AverageGamma(tuples, k, f, safearea.MethodLexMinLP); err != nil {
				b.Fatal(err)
			}
		}
	})
	sets := candidateSets(b, tuples, k)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("warm/workers=%d", workers), func(b *testing.B) {
			eng := NewEngine(workers)
			if _, _, err := eng.AverageGammaSets(sets, f, safearea.MethodLexMinLP); err != nil {
				b.Fatal(err) // warm the table outside the timed loop
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := eng.AverageGammaSets(sets, f, safearea.MethodLexMinLP); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// candidateSets materializes the k-subsets of tuples in rank order: the
// candidate sets an AverageGamma walk visits, as AverageGammaSets takes
// them.
func candidateSets(tb testing.TB, tuples []tuple, k int) [][]tuple {
	tb.Helper()
	var sets [][]tuple
	if err := combin.Combinations(len(tuples), k, func(idx []int) bool {
		set := make([]tuple, k)
		for i, j := range idx {
			set[i] = tuples[j]
		}
		sets = append(sets, set)
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	return sets
}

// TestAverageGammaHelpersStartMidWalk: a walk's caller is its worker 0 and
// starts the helpers at the first candidate set that needs a solve, so with
// the memo pre-warmed on the first j sets the helpers join mid-walk (or,
// at j = total, never). Wherever they join, a 4-worker and a GOMAXPROCS
// engine match a one-worker engine bit for bit — the point, |Zi| and the
// counter delta — and a failing set after the first miss yields the
// one-worker engine's first-failing-rank error. An all-hit walk allocates
// what the one-worker engine's does: no helper scratch, no goroutine.
func TestAverageGammaHelpersStartMidWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d, f := 1, 2
	n := MinProcesses(VariantRestrictedSync, d, f)
	k := n - f
	tuples := randomTuples(rng, n, d)
	sets := candidateSets(t, tuples, k)
	total := len(sets)
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	warm := func(eng *Engine, j int, method safearea.Method) {
		t.Helper()
		if j == 0 {
			return
		}
		if _, _, err := eng.AverageGammaSets(sets[:j], f, method); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		key   string
		size  int
		delta GammaCounters
	}
	calls := map[string]func(*Engine, safearea.Method) (geometry.Vector, int, error){
		"AverageGamma": func(eng *Engine, m safearea.Method) (geometry.Vector, int, error) {
			return eng.AverageGamma(tuples, k, f, m)
		},
		"AverageGammaSets": func(eng *Engine, m safearea.Method) (geometry.Vector, int, error) {
			return eng.AverageGammaSets(sets, f, m)
		},
	}
	for _, method := range []safearea.Method{safearea.MethodLexMinLP, safearea.MethodAuto} {
		for _, j := range []int{0, 1, total - 1, total} {
			for name, call := range calls {
				var want result
				for i, workers := range workerSets {
					eng := NewEngine(workers)
					warm(eng, j, method)
					before := eng.Counters()
					pt, size, err := call(eng, method)
					if err != nil {
						t.Fatalf("%s method=%v j=%d workers=%d: %v", name, method, j, workers, err)
					}
					got := result{string(geometry.AppendKey(nil, pt)), size, eng.Counters().Sub(before)}
					if i == 0 {
						want = got
						if (j == total) != (got.delta.Solves == 0) {
							t.Fatalf("%s method=%v j=%d: %d solves after warming %d of %d sets",
								name, method, j, got.delta.Solves, j, total)
						}
					} else if got != want {
						t.Fatalf("%s method=%v j=%d workers=%d: %+v, workers=1 gave %+v",
							name, method, j, workers, got, want)
					}
				}
			}
		}
	}

	// Failures after the first miss. AverageGammaSets: a set of two
	// members and then one of one member both leave no subset at f = 2,
	// with errors that name their size; the two-member set must be
	// reported. AverageGamma: the last two origins carry values of the
	// wrong dimension, 2 and 3, so every rank but 0 fails, rank 1 (the
	// first k−1 origins and origin n−2) first, and the errors name the
	// offending dimension.
	badSets := make([][]tuple, 0, total+2)
	badSets = append(badSets, sets[:2]...)
	badSets = append(badSets, sets[2][:2], sets[3][:1])
	badSets = append(badSets, sets[4:]...)
	badTuples := append([]tuple(nil), tuples...)
	badTuples[n-2].value = geometry.NewVector(d + 1)
	badTuples[n-1].value = geometry.NewVector(d + 2)
	failing := map[string]struct {
		call  func(*Engine) error
		first string // in the first failing set's error only
	}{
		"AverageGammaSets": {func(eng *Engine) error {
			_, _, err := eng.AverageGammaSets(badSets, f, safearea.MethodLexMinLP)
			return err
		}, "|Y| = 2"},
		"AverageGamma": {func(eng *Engine) error {
			_, _, err := eng.AverageGamma(badTuples, k, f, safearea.MethodLexMinLP)
			return err
		}, "point dimension 2"},
	}
	for name, c := range failing {
		var want string
		for i, workers := range workerSets {
			eng := NewEngine(workers)
			warm(eng, 1, safearea.MethodLexMinLP) // the first miss is set 1
			err := c.call(eng)
			if err == nil {
				t.Fatalf("%s workers=%d: no error", name, workers)
			}
			if i == 0 {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("%s workers=%d: %v, workers=1 gave %s", name, workers, err, want)
			}
		}
		if !strings.Contains(want, c.first) {
			t.Fatalf("%s: %s is not the first failing set's error", name, want)
		}
	}

	// All hits: the walk never leaves its caller's goroutine.
	allocs := make([]float64, len(workerSets))
	for i, workers := range workerSets {
		eng := NewEngine(workers)
		warm(eng, total, safearea.MethodLexMinLP)
		allocs[i] = testing.AllocsPerRun(50, func() {
			if _, _, err := eng.AverageGammaSets(sets, f, safearea.MethodLexMinLP); err != nil {
				t.Fatal(err)
			}
		})
		if allocs[i] != allocs[0] {
			t.Fatalf("warm AverageGammaSets: %v allocs/op on %d workers, %v on one", allocs[i], workers, allocs[0])
		}
	}
}

// AgreedMultiset returns the multiset S of broadcast-agreed inputs (the
// Step 1 postcondition exact_bvc_test.go checks); nil before termination.
func (e *ExactNode) AgreedMultiset() *geometry.Multiset {
	if e.s == nil {
		return nil
	}
	return e.s.Clone()
}

// Decided reports whether the node has reached its decision (step_test.go
// polls it); the node keeps serving the exchange afterwards.
func (a *AsyncNode) Decided() bool { return a.decision != nil }

// Quiescent reports whether the node has decided and every reliable
// broadcast of its rounds 1..R has retired (node_transcript_test.go replays
// into quiescent nodes): no message can make it send anything again. The
// service asks the coordinator AsyncNode.Linger hands back.
func (a *AsyncNode) Quiescent() bool { return a.coord.Quiescent() }
