package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/safearea"
)

// memoTestKey is a 121-byte key (9 bytes of metadata plus seven 2-d
// values: a candidate-set key spelling out its members' bytes) that
// differs from its siblings only in its last 8 bytes, so every hit
// compares the whole key.
func memoTestKey(dst []byte, i int) []byte {
	dst = append(dst[:0], make([]byte, 113)...)
	return binary.BigEndian.AppendUint64(dst, uint64(i))
}

// memoEntries returns the table's entry count and slot-array length.
func (t *memoTable[V]) memoEntries() (n, slots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n, len(*t.slots.Load())
}

// TestMemoTableConcurrentGetOrCreate: goroutines racing over overlapping
// keys — through the lock-free hit path, the locked insert path and every
// resize — get exactly one entry per key, computed exactly once, and the
// same pointer for equal keys.
func TestMemoTableConcurrentGetOrCreate(t *testing.T) {
	type counted struct {
		once sync.Once
		id   int
	}
	const goroutines, lookups, keys = 8, 10_000, 2_000
	tab := newMemoTable[counted](1<<12, nil)
	var computed [keys]atomic.Int32
	seen := make([][]*counted, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		seen[g] = make([]*counted, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var key []byte
			for l := 0; l < lookups; l++ {
				k := (l*7 + g*251) % keys // every goroutine visits every key
				key = memoTestKey(key, k)
				ent := tab.get(key)
				ent.once.Do(func() {
					computed[k].Add(1)
					ent.id = k
				})
				if ent.id != k {
					t.Errorf("key %d: entry computed for key %d", k, ent.id)
					return
				}
				if prev := seen[g][k]; prev != nil && prev != ent {
					t.Errorf("key %d: two entries seen by one goroutine", k)
					return
				}
				seen[g][k] = ent
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := 0; k < keys; k++ {
		if c := computed[k].Load(); c != 1 {
			t.Fatalf("key %d computed %d times", k, c)
		}
		for g := 1; g < goroutines; g++ {
			if seen[g][k] != seen[0][k] {
				t.Fatalf("key %d: goroutines %d and 0 got different entries", k, g)
			}
		}
	}
	if n, _ := tab.memoEntries(); n != keys {
		t.Fatalf("table holds %d entries for %d keys", n, keys)
	}
}

// TestMemoTableHashCollision: distinct keys under one forced hash get
// distinct entries — across the resizes their shared probe chain forces —
// and each lookup finds its own.
func TestMemoTableHashCollision(t *testing.T) {
	const keys, h = 40, 7
	tab := newMemoTable[int](1<<10, nil)
	ents := make([]*int, keys)
	var key []byte
	for i := range ents {
		key = memoTestKey(key, i)
		ents[i] = tab.getHashed(key, h)
		*ents[i] = i
	}
	for i := range ents {
		key = memoTestKey(key, i)
		if got := tab.getHashed(key, h); got != ents[i] || *got != i {
			t.Fatalf("key %d: found entry of key %d", i, *got)
		}
	}
	if n, slots := tab.memoEntries(); n != keys || slots <= memoMinSlots {
		t.Fatalf("%d entries in %d slots, want %d entries after growth", n, slots, keys)
	}
}

// TestMemoTableBoundDrops: an insert into a full table drops it first, so
// the table never holds more than its bound, and Γ-points recomputed after
// a drop are bit-equal to the originals.
func TestMemoTableBoundDrops(t *testing.T) {
	const bound, sets = 8, 20
	rng := rand.New(rand.NewSource(3))
	d, f := 2, 1
	n := MinProcesses(VariantExactSync, d, f)
	tab := newMemoTable[gammaEntry](bound, nil)
	keys := make([][]byte, sets)
	pts := make([]*geometry.Multiset, sets)
	for i := range pts {
		ms := geometry.NewMultiset(d)
		for _, tp := range randomTuples(rng, n, d) {
			if err := ms.Add(tp.value); err != nil {
				t.Fatal(err)
			}
			keys[i] = geometry.AppendKey(keys[i], tp.value)
		}
		pts[i] = ms
	}
	solves := 0
	point := func(i int) string {
		ent := tab.get(keys[i])
		ent.once.Do(func() {
			solves++
			ent.pt, ent.err = safearea.PointWith(pts[i], f, safearea.MethodAuto)
		})
		if ent.err != nil {
			t.Fatal(ent.err)
		}
		if got, _ := tab.memoEntries(); got > bound {
			t.Fatalf("table holds %d entries, bound %d", got, bound)
		}
		return geometry.Key(ent.pt)
	}
	want := make([]string, sets)
	for i := range want {
		want[i] = point(i)
	}
	for i := range want {
		if got := point(i); got != want[i] {
			t.Fatalf("set %d: recomputed point differs from the original", i)
		}
	}
	if solves != 2*sets {
		t.Fatalf("%d solves, want %d: every entry should have been dropped between passes", solves, 2*sets)
	}
}

// TestMemoTableAllocBudget: a hit allocates nothing, and a miss carves its
// node and key from chunks — well under one allocation per miss once the
// table holds a few hundred entries.
func TestMemoTableAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tab := newMemoTable[gammaEntry](maxMemoEntries, nil)
	keys := make([][]byte, 600)
	for i := range keys {
		keys[i] = memoTestKey(nil, i)
	}
	for _, key := range keys[:300] {
		tab.get(key) // grow to 1024 slots: the misses below cause no resize
	}
	if allocs := testing.AllocsPerRun(100, func() { tab.get(keys[0]) }); allocs != 0 {
		t.Errorf("hit: %v allocs, want 0", allocs)
	}
	next := 300
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for ; next < 500; next++ {
		tab.get(keys[next])
	}
	runtime.ReadMemStats(&m1)
	// At 300–500 entries a chunk serves 37–62 of them: about four node and
	// four key chunks for these 200 misses.
	if allocs := m1.Mallocs - m0.Mallocs; allocs > 12 {
		t.Errorf("200 misses: %d allocs, want ≤ 12", allocs)
	}
}

// TestMemoTableChunksFollowContent: a table's chunks start at single
// entries, grow with its content up to memoMaxChunk, and a drop releases
// them; every key survives being carved next to others.
func TestMemoTableChunksFollowContent(t *testing.T) {
	tab := newMemoTable[int](1<<14, nil)
	var sizes []int // node count of each chunk, in order
	var key []byte
	for i := 0; i < 4000; i++ {
		fresh := len(tab.nodes) == 0
		key = memoTestKey(key, i)
		*tab.get(key) = i
		if fresh {
			sizes = append(sizes, len(tab.nodes)+1)
		}
	}
	if sizes[0] > 4 {
		t.Errorf("first chunk holds %d nodes, want a handful", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("chunk %d holds %d nodes, fewer than chunk %d's %d", i, sizes[i], i-1, sizes[i-1])
		}
	}
	if last := sizes[len(sizes)-1]; last < memoMaxChunk || last > 2*memoMaxChunk {
		t.Errorf("last chunk holds %d nodes, want about memoMaxChunk = %d", last, memoMaxChunk)
	}
	for i := 0; i < 4000; i++ {
		key = memoTestKey(key, i)
		if got := *tab.get(key); got != i {
			t.Fatalf("key %d found entry %d", i, got)
		}
	}
	tab.reset()
	if tab.nodes != nil || tab.keys.Cap() != 0 {
		t.Fatalf("reset kept chunks: %d nodes, %d key bytes", len(tab.nodes), tab.keys.Cap())
	}
}

// TestEngineMemoSizedToContent: after Reset, a few solves leave every slot
// array, the value interner's included, at its small starting size — a
// table sized for its bound instead of its content would keep that memory
// reachable from the default engine between operations.
func TestEngineMemoSizedToContent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, f := 2, 1
	n := MinProcesses(VariantExactSync, d, f)
	eng := NewEngine(1, true)
	solve := func(count int) {
		for i := 0; i < count; i++ {
			ms := geometry.NewMultiset(d)
			for _, tp := range randomTuples(rng, n, d) {
				if err := ms.Add(tp.value); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.SafePoint(ms, f, safearea.MethodAuto); err != nil {
				t.Fatal(err)
			}
		}
	}
	solve(200)
	if _, slots := eng.memo.memoEntries(); slots <= 64 {
		t.Fatalf("200 solves left %d slots: the table should grow with content", slots)
	}
	eng.Reset()
	solve(10)
	_, memo := eng.memo.memoEntries()
	_, zi := eng.zi.memoEntries()
	_, fams := eng.fams.memoEntries()
	if memo > 64 || zi > 64 || fams > 64 {
		t.Fatalf("slots after Reset plus 10 solves: memo %d, zi %d, fams %d; want ≤ 64", memo, zi, fams)
	}
	// The interner holds the 10 multisets' values: at most ½ load after a
	// doubling, so at most four slots per value.
	if values, slots := eng.values.Load().ids.memoEntries(); values != 10*n || slots > 4*values {
		t.Fatalf("interner after Reset plus 10 solves: %d values in %d slots; want %d values, ≤ 4 slots each", values, slots, 10*n)
	}
}

// TestMemoIDKeysSurviveDrops: with a Γ-point table and an interner bounded
// to a handful of entries, drops — and with them the end of a generation
// and the reissue of ids from 0 — land in the middle of walks running
// concurrently on one 4-worker engine. Every AverageGamma, AverageGammaSets
// and SafePoint result over overlapping value pools must still equal an
// uncached serial engine's bit for bit: a key built from ids of an ended
// generation may only miss or insert a dead entry, never hit an entry of
// another generation.
func TestMemoIDKeysSurviveDrops(t *testing.T) {
	type input struct {
		tuples []tuple
		sets   [][]tuple
		ms     *geometry.Multiset
		k, f   int
	}
	type result struct{ avg, sets, safe string }
	rng := rand.New(rand.NewSource(23))
	var inputs []input
	for _, c := range []struct{ d, f, n, k int }{
		{2, 1, 7, 6}, // Radon: prefix keys of 4 members, full keys of 6
		{2, 2, 9, 8}, // Tverberg lift: prefix keys of 7 members
		{1, 2, 6, 4}, // d = 1 closed form: full keys only
	} {
		pool := randomTuples(rng, c.n+3, c.d) // a small pool: inputs overlap
		for range 8 {
			tuples := make([]tuple, c.n)
			for i, j := range rng.Perm(len(pool))[:c.n] {
				tuples[i] = tuple{origin: i, value: pool[j].value}
			}
			ms := geometry.NewMultiset(c.d)
			for _, tp := range tuples {
				if err := ms.Add(tp.value); err != nil {
					t.Fatal(err)
				}
			}
			inputs = append(inputs, input{tuples, candidateSets(t, tuples, c.k), ms, c.k, c.f})
		}
	}
	run := func(eng *Engine, in input) result {
		key := func(pt geometry.Vector, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return fmt.Sprintf("%x", geometry.Key(pt))
		}
		var r result
		pt, _, err := eng.AverageGamma(in.tuples, in.k, in.f, safearea.MethodAuto)
		r.avg = key(pt, err)
		pt, _, err = eng.AverageGammaSets(in.sets, in.f, safearea.MethodAuto)
		r.sets = key(pt, err)
		r.safe = key(eng.SafePoint(in.ms, in.f, safearea.MethodAuto))
		return r
	}
	ref := NewEngine(1, false)
	want := make([]result, len(inputs))
	for i, in := range inputs {
		want[i] = run(ref, in)
	}

	for _, bounds := range []struct{ memo, values int }{{5, maxInternValues}, {8, maxInternValues}, {64, 9}} {
		eng := newEngine(4, true, bounds.memo, bounds.values)
		const goroutines, passes = 4, 2
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range passes * len(inputs) {
					i := (p*(2*g+1) + g) % len(inputs)
					if got := run(eng, inputs[i]); got != want[i] {
						t.Errorf("bounds %+v, input %d: %+v, uncached serial engine gave %+v", bounds, i, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		if gens := eng.values.Load().gen; gens < 10 {
			t.Errorf("bounds %+v: %d generations, want the bounds to force many drops", bounds, gens)
		}
	}
}

// memoKeyBytes returns the table's entry count and the bytes of the keys
// it stores.
func (t *memoTable[V]) memoKeyBytes() (n, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := *t.slots.Load()
	for i := range s {
		if nd := s[i].node.Load(); nd != nil {
			n++
			bytes += len(nd.key)
		}
	}
	return n, bytes
}

// TestEngineMemoKeyBytes pins the Γ-point keys' footprint on a
// sim-rasync-f2-shaped walk (11 tuples, k = 7, d = 2, f = 2): keys naming
// each member by its interned id store at most 42 bytes per entry, where
// keys holding the members' bytes stored 9 + 7·16 = 121.
func TestEngineMemoKeyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng := NewEngine(1, true)
	if _, _, err := eng.AverageGamma(randomTuples(rng, 11, 2), 7, 2, safearea.MethodAuto); err != nil {
		t.Fatal(err)
	}
	n, bytes := eng.memo.memoKeyBytes()
	if n != 330 {
		t.Fatalf("%d entries, want one per candidate set, C(11, 7) = 330", n)
	}
	if per := float64(bytes) / float64(n); per > 42 {
		t.Fatalf("%.1f key bytes per entry, want ≤ 42", per)
	} else {
		t.Logf("%.1f key bytes per entry", per)
	}
}
