package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/safearea"
)

// appendMemoKey appends an n-byte key (n ≥ 8) that differs from its
// siblings only in its last 8 bytes, so every hit compares the whole key.
func appendMemoKey(dst []byte, n, i int) []byte {
	dst = append(dst[:0], make([]byte, n-8)...)
	return binary.BigEndian.AppendUint64(dst, uint64(i))
}

// memoTestKey is a 121-byte key, the length of a candidate-set key
// spelling out seven 2-d members' bytes, as the round and Radon-family keys
// still do. It is longer than memoInlineKey, so its bytes live in the key
// arena.
func memoTestKey(dst []byte, i int) []byte { return appendMemoKey(dst, 121, i) }

// memoShortKey is an 18-byte key, inside the 12–19 bytes of a
// sim-rasync-f2 Γ-point key, held inline in its record.
func memoShortKey(dst []byte, i int) []byte { return appendMemoKey(dst, 18, i) }

// memoKeyShapes are the two places a record's key can live, and the
// lengths on either side of the boundary between them.
var memoKeyShapes = []struct {
	name string
	key  func(dst []byte, i int) []byte
}{
	{"inline", memoShortKey},
	{"20 bytes", func(dst []byte, i int) []byte { return appendMemoKey(dst, memoInlineKey, i) }},
	{"21 bytes", func(dst []byte, i int) []byte { return appendMemoKey(dst, memoInlineKey+1, i) }},
	{"arena", memoTestKey},
}

// memoEntries returns the table's entry count and slot-array length.
func (t *memoTable[V]) memoEntries() (n, slots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots.Load()
	return int(s.st.recs.next), len(s.words)
}

// chunkLens returns the lengths of the arena's allocated chunks, in order.
func (a *memoArena[T]) chunkLens() []int {
	var lens []int
	if p := a.chunks.Load(); p != nil {
		for _, c := range *p {
			if c != nil {
				lens = append(lens, len(c))
			}
		}
	}
	return lens
}

// memoRetained returns the table's entry count and the bytes its store
// holds: the slot array, and the record (keys inline), key and float
// chunks.
func (t *memoTable[V]) memoRetained() (n, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots.Load()
	st := s.st
	bytes = 4*len(s.words) + st.recs.heldBytes() + st.keys.heldBytes() + st.floats.heldBytes()
	return int(st.recs.next), bytes
}

// heldBytes returns the bytes of the arena's chunks.
func (a *memoArena[T]) heldBytes() (bytes int) {
	var zero T
	for _, n := range a.chunkLens() {
		bytes += n * int(unsafe.Sizeof(zero))
	}
	return bytes
}

// TestMemoTableConcurrentGetOrCreate: goroutines racing over overlapping
// keys — through the lock-free hit path, the locked insert path and every
// resize — get exactly one entry per key, computed exactly once, and the
// same point for equal keys.
func TestMemoTableConcurrentGetOrCreate(t *testing.T) {
	const goroutines, lookups, keys = 8, 10_000, 2_000
	tab := newMemoTable[memoResult](1<<12, nil)
	var computed [keys]atomic.Int32
	seen := make([][]*float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		seen[g] = make([]*float64, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var key []byte
			for l := 0; l < lookups; l++ {
				k := (l*7 + g*251) % keys // every goroutine visits every key
				key = memoTestKey(key, k)
				pt, _, _, err := solveOnce(tab, key, 1, func() (geometry.Vector, uint32, error) {
					computed[k].Add(1)
					return geometry.Vector{float64(k)}, 0, nil
				})
				if err != nil || len(pt) != 1 || pt[0] != float64(k) {
					t.Errorf("key %d: point %v, error %v", k, pt, err)
					return
				}
				if prev := seen[g][k]; prev != nil && prev != &pt[0] {
					t.Errorf("key %d: two points seen by one goroutine", k)
					return
				}
				seen[g][k] = &pt[0]
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
				t.Fatalf("key %d: goroutines %d and 0 got different points", k, g)
			}
		}
	}
	if n, _ := tab.memoEntries(); n != keys {
		t.Fatalf("table holds %d entries for %d keys", n, keys)
	}
}

// waitersIn returns how many goroutines are blocked in solveOnce's wait
// for a pending record, reading their stacks into buf.
func waitersIn(buf []byte) int {
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "core.solveOnce") {
			n++
		}
	}
	return n
}

// TestMemoTableConcurrentMiss: eight goroutines miss one key together.
// Exactly one computes while the other seven wait on the table, and every
// caller gets the same point; an erroring compute is seen by every waiter
// and by every later caller, and none of them counts as a hit.
func TestMemoTableConcurrentMiss(t *testing.T) {
	const goroutines = 8
	for _, fail := range []error{nil, errors.New("no safe point")} {
		tab := newMemoTable[memoResult](1<<10, nil)
		key := memoShortKey(nil, 1)
		var computes, returned atomic.Int32
		pts := make([]geometry.Vector, goroutines)
		errs := make([]error, goroutines)
		tallies := make([]gammaTally, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pt, _, fresh, err := solveOnce(tab, key, 2, func() (geometry.Vector, uint32, error) {
					computes.Add(1)
					// Wait until the others wait; a caller that returns
					// without waiting ends the loop too, and fails below.
					buf := make([]byte, 1<<20)
					for waitersIn(buf)+int(returned.Load()) < goroutines-1 {
						runtime.Gosched()
					}
					return geometry.Vector{1.5, -2}, 0, fail
				})
				returned.Add(1)
				pts[g], errs[g] = pt, err
				tallies[g].record(fresh, err, &tallies[g].cacheHits)
			}()
		}
		wg.Wait()
		if c := computes.Load(); c != 1 {
			t.Fatalf("error %v: %d computes, want 1", fail, c)
		}
		var total gammaTally
		for g := range goroutines {
			total.solves += tallies[g].solves
			total.cacheHits += tallies[g].cacheHits
			if errs[g] != fail {
				t.Errorf("error %v: caller %d got error %v", fail, g, errs[g])
			}
			if fail == nil && (len(pts[g]) != 2 || &pts[g][0] != &pts[0][0] || pts[g][0] != 1.5) {
				t.Errorf("caller %d got point %v, caller 0 %v", g, pts[g], pts[0])
			}
		}
		wantHits := uint64(goroutines - 1)
		if fail != nil {
			wantHits = 0
			if _, _, fresh, err := solveOnce(tab, key, 2, nil); fresh || err != fail {
				t.Errorf("recall of a failed entry: fresh %v, error %v", fresh, err)
			}
		}
		if total.solves != 1 || total.cacheHits != wantHits {
			t.Errorf("error %v: %d solves and %d hits, want 1 and %d", fail, total.solves, total.cacheHits, wantHits)
		}
	}
}

// TestMemoTableHashCollision: distinct keys whose hashes differ but share
// their low 16 bits — the bits a slot keeps and probes from — get distinct
// entries, across the resizes their shared probe chain forces, and each
// lookup finds its own: only the key compare tells them apart.
func TestMemoTableHashCollision(t *testing.T) {
	for _, shape := range memoKeyShapes {
		const keys = 40
		hash := func(i int) uint64 { return uint64(i+1)<<16 | 7 }
		tab := newMemoTable[int](1<<10, nil)
		ids := make([]uint32, keys)
		var key []byte
		for i := range ids {
			key = shape.key(key, i)
			_, id, r, inserted := tab.getHashed(key, hash(i))
			if !inserted {
				t.Fatalf("%s key %d: found before insertion", shape.name, i)
			}
			r.val = i
			ids[i] = id
		}
		for i := range ids {
			key = shape.key(key, i)
			if _, id, r, _ := tab.getHashed(key, hash(i)); id != ids[i] || r.val != i {
				t.Fatalf("%s key %d: found entry of key %d", shape.name, i, r.val)
			}
		}
		if n, slots := tab.memoEntries(); n != keys || slots <= memoMinSlots {
			t.Fatalf("%s: %d entries in %d slots, want %d entries after growth", shape.name, n, slots, keys)
		}
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
	tab := newMemoTable[memoResult](bound, nil)
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
		pt, _, fresh, err := solveOnce(tab, keys[i], d, func() (geometry.Vector, uint32, error) {
			pt, err := safearea.PointWith(pts[i], f, safearea.MethodAuto)
			return pt, 0, err
		})
		if fresh {
			solves++
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := tab.memoEntries(); got > bound {
			t.Fatalf("table holds %d entries, bound %d", got, bound)
		}
		return string(geometry.AppendKey(nil, pt))
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
// record, and a long key's bytes, from chunks — well under one allocation
// per miss once the table holds a few hundred entries.
func TestMemoTableAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, shape := range memoKeyShapes {
		tab := newMemoTable[memoResult](maxMemoEntries, nil)
		keys := make([][]byte, 600)
		for i := range keys {
			keys[i] = shape.key(nil, i)
		}
		for _, key := range keys[:300] {
			tab.get(key)
		}
		if allocs := testing.AllocsPerRun(100, func() { tab.get(keys[0]) }); allocs != 0 {
			t.Errorf("%s hit: %v allocs, want 0", shape.name, allocs)
		}
		solved := func() (geometry.Vector, uint32, error) { return geometry.Vector{1, 2}, 0, nil }
		solveOnce(tab, keys[599], 2, solved)
		if allocs := testing.AllocsPerRun(100, func() { solveOnce(tab, keys[599], 2, solved) }); allocs != 0 {
			t.Errorf("%s hit through solveOnce: %v allocs, want 0", shape.name, allocs)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, key := range keys[300:500] {
			tab.get(key)
		}
		runtime.ReadMemStats(&m1)
		// 200 misses from 300 entries: one record chunk of 128 records, one
		// slot-array doubling at ¾ load, and for long keys about six 4 KiB
		// key chunks.
		if allocs := m1.Mallocs - m0.Mallocs; allocs > 12 {
			t.Errorf("%s, 200 misses: %d allocs, want ≤ 12", shape.name, allocs)
		} else {
			t.Logf("%s, 200 misses: %d allocs", shape.name, allocs)
		}
	}
}

// TestMemoTableChunksFollowContent: a table's record chunks start at single
// entries, grow with its content up to 2^memoChunkBits, and a drop releases
// them; every key survives being carved next to others.
func TestMemoTableChunksFollowContent(t *testing.T) {
	for _, shape := range memoKeyShapes {
		tab := newMemoTable[int](1<<14, nil)
		var key []byte
		for i := 0; i < 4000; i++ {
			key = shape.key(key, i)
			_, _, r, _ := tab.get(key)
			r.val = i
		}
		sizes := tab.slots.Load().st.recs.chunkLens() // record count of each chunk, in order
		if sizes[0] > 4 {
			t.Errorf("%s: first chunk holds %d records, want a handful", shape.name, sizes[0])
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] < sizes[i-1] {
				t.Fatalf("%s: chunk %d holds %d records, fewer than chunk %d's %d", shape.name, i, sizes[i], i-1, sizes[i-1])
			}
		}
		if last, max := sizes[len(sizes)-1], 1<<memoChunkBits; last < max || last > 2*max {
			t.Errorf("%s: last chunk holds %d records, want about 2^memoChunkBits = %d", shape.name, last, max)
		}
		for i := 0; i < 4000; i++ {
			key = shape.key(key, i)
			if _, _, r, _ := tab.get(key); r.val != i {
				t.Fatalf("%s: key %d found entry %d", shape.name, i, r.val)
			}
		}
		tab.reset()
		if st := tab.slots.Load().st; st.recs.chunks.Load() != nil || st.keys.chunks.Load() != nil {
			t.Fatalf("%s: reset kept chunks: %v records, %v key bytes", shape.name, st.recs.chunkLens(), st.keys.chunkLens())
		}
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
	eng := NewEngine(1)
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
// and SafePoint result over overlapping value pools must still equal the
// eq. (9) oracle's bit for bit (safearea.PointWith's, for SafePoint): a key
// built from ids of an ended generation may only miss or insert a dead
// entry, never hit an entry of another generation.
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
		pt, err := eng.SafePoint(in.ms, in.f, safearea.MethodAuto)
		return result{
			avg:  resultKey(eng.AverageGamma(in.tuples, in.k, in.f, safearea.MethodAuto)),
			sets: resultKey(eng.AverageGammaSets(in.sets, in.f, safearea.MethodAuto)),
			safe: resultKey(pt, 0, err),
		}
	}
	want := make([]result, len(inputs))
	for i, in := range inputs {
		pt, err := safearea.PointWith(in.ms, in.f, safearea.MethodAuto)
		want[i] = result{
			avg:  resultKey(oracleAverageGamma(t, in.tuples, in.k, in.f, safearea.MethodAuto)),
			sets: resultKey(averageGammaPoints(in.sets, in.f, safearea.MethodAuto)),
			safe: resultKey(pt, 0, err),
		}
	}

	for _, bounds := range []struct{ memo, values int }{{5, maxInternValues}, {8, maxInternValues}, {64, 9}} {
		eng := newEngine(4, bounds.memo, bounds.values)
		const goroutines, passes = 4, 2
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range passes * len(inputs) {
					i := (p*(2*g+1) + g) % len(inputs)
					if got := run(eng, inputs[i]); got != want[i] {
						t.Errorf("bounds %+v, input %d: %+v, the oracle gave %+v", bounds, i, got, want[i])
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
	st := t.slots.Load().st
	for i := range st.recs.next {
		c, off, _ := memoChunkOf(i, memoChunkBits)
		bytes += len(st.key(&(*st.recs.chunks.Load())[c][off]))
	}
	return int(st.recs.next), bytes
}

// TestEngineMemoKeyBytes pins the Γ-point keys' footprint on a
// sim-rasync-f2-shaped walk (11 tuples, k = 7, d = 2, f = 2): keys naming
// each member by its interned id behind a 5-byte head (tag, method, d, f,
// generation) store at most 20 bytes per entry, so they fit a record
// inline; the 9-byte fixed-width head made them 18, and keys holding the
// members' bytes stored 9 + 7·16 = 121.
func TestEngineMemoKeyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng := NewEngine(1)
	if _, _, err := eng.AverageGamma(randomTuples(rng, 11, 2), 7, 2, safearea.MethodAuto); err != nil {
		t.Fatal(err)
	}
	n, bytes := eng.memo.memoKeyBytes()
	if n != 330 {
		t.Fatalf("%d entries, want one per candidate set, C(11, 7) = 330", n)
	}
	if per := float64(bytes) / float64(n); per > 20 {
		t.Fatalf("%.1f key bytes per entry, want ≤ 20", per)
	} else {
		t.Logf("%.1f key bytes per entry", per)
	}
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestEngineMemoBytesPerEntry pins the heap the Γ-point memo keeps per
// entry on a sim-rasync-f2-shaped run: one serial engine walks 40 B sets of
// 11 tuples (k = 7, d = 2, f = 2), 40 × C(11, 7) = 13 200 entries. Retained
// heap after GC, divided by the entries, covers the 4-byte slots, the
// 32-byte record with its inline key, the point, and the walks' interned
// values and round entries: at most 66 bytes (88 with 48-byte records and
// 8-byte slots, 163.5 with 16-byte slots and per-entry nodes).
func TestEngineMemoBytesPerEntry(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const walks = 40
	rng := rand.New(rand.NewSource(17))
	bsets := make([][]tuple, walks)
	for i := range bsets {
		bsets[i] = randomTuples(rng, 11, 2)
	}
	eng := NewEngine(1)
	before := heapAfterGC()
	for _, tuples := range bsets {
		if _, _, err := eng.AverageGamma(tuples, 7, 2, safearea.MethodAuto); err != nil {
			t.Fatal(err)
		}
	}
	after := heapAfterGC()
	n, _ := eng.memo.memoEntries()
	if n != walks*330 {
		t.Fatalf("%d entries, want %d", n, walks*330)
	}
	per := float64(int64(after)-int64(before)) / float64(n)
	_, held := eng.memo.memoRetained()
	t.Logf("%.1f bytes retained per entry (the table's store alone: %.1f)", per, float64(held)/float64(n))
	if per > 66 {
		t.Fatalf("%.1f bytes retained per Γ entry, want ≤ 66", per)
	}
	runtime.KeepAlive(bsets)
}

// TestEngineMemoBytesPerInternedValue pins the heap the value interner
// keeps per value: 10 000 distinct d = 2 values, each stored once as a
// 24-byte record with its 16 key bytes inline, at most 36 bytes each with
// the 4-byte slots (46 with 32-byte records and 8-byte slots, 92.8 with a
// node and a key string per value).
func TestEngineMemoBytesPerInternedValue(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const values = 10_000
	rng := rand.New(rand.NewSource(19))
	keys := make([]byte, 0, 16*values)
	for range values {
		keys = geometry.AppendKey(keys, geometry.Vector{rng.Float64(), rng.Float64()})
	}
	eng := NewEngine(1)
	v := eng.values.Load()
	before := heapAfterGC()
	for i := range values {
		if id := v.id(keys[16*i : 16*i+16]); id != uint64(i) {
			t.Fatalf("value %d got id %d", i, id)
		}
	}
	after := heapAfterGC()
	per := float64(int64(after)-int64(before)) / values
	t.Logf("%.1f bytes retained per interned value", per)
	if per > 36 {
		t.Fatalf("%.1f bytes retained per interned value, want ≤ 36", per)
	}
	runtime.KeepAlive(keys)
	runtime.KeepAlive(eng)
}

// TestMemoUncertifiedPrefixEntry: a Tverberg-lift walk (d = 2, f = 2, sets
// of 8, prefixes of 7) whose prefix cannot be certified — its seven
// members coincide, so only the full multiset decides — stores a count-0
// prefix entry with no point. A later superset sharing the prefix must
// read that entry back as "no point" and fall through to its own full-set
// key, and every result must equal the oracle's.
func TestMemoUncertifiedPrefixEntry(t *testing.T) {
	const d, f, k = 2, 2, 8
	if m := safearea.PrefixLen(k, d, f, safearea.MethodAuto); m != k-1 {
		t.Fatalf("prefix of %d members, want %d", m, k-1)
	}
	set := func(last geometry.Vector) []tuple {
		s := make([]tuple, k)
		for i := range s[:k-1] {
			s[i] = tuple{origin: i, value: geometry.Vector{0.5, 0.5}}
		}
		s[k-1] = tuple{origin: k - 1, value: last}
		return s
	}
	a, b := set(geometry.Vector{1, 0.25}), set(geometry.Vector{0.75, 1})
	eng := NewEngine(1)
	for _, c := range []struct {
		name string
		set  []tuple
		want GammaCounters
	}{
		{"first superset", a, GammaCounters{Solves: 1}},
		{"second superset", b, GammaCounters{Solves: 1}},
		{"first again", a, GammaCounters{CacheHits: 1}},
	} {
		before := eng.Counters()
		got := resultKey(eng.AverageGammaSets([][]tuple{c.set}, f, safearea.MethodAuto))
		if want := resultKey(averageGammaPoints([][]tuple{c.set}, f, safearea.MethodAuto)); got != want {
			t.Fatalf("%s: %s, the oracle gave %s", c.name, got, want)
		}
		if n := eng.Counters().Sub(before); n != c.want {
			t.Fatalf("%s: counters %+v, want %+v", c.name, n, c.want)
		}
	}
	sc := eng.scratch(nil, 0, k, k, d, f, safearea.MethodAuto)
	sc.startSet()
	for i := range a {
		sc.addMember(a, i)
	}
	key, prefixEnd := sc.setKey(k - 1)
	key[keyTagAt] = prefixKeyTag
	pt, n, fresh, err := solveOnce(eng.memo, key[:prefixEnd], d, nil)
	if pt != nil || n != 0 || fresh || err != nil {
		t.Fatalf("prefix entry: point %v, count %d, fresh %v, error %v; want a stored entry with no point", pt, n, fresh, err)
	}
	if entries, _ := eng.memo.memoEntries(); entries != 3 {
		t.Fatalf("%d Γ-point entries, want the prefix and two full sets", entries)
	}
}

// TestMemoRecordIndexBound: records are 32 bytes (24 for the interner),
// and a slot keeps a record's index plus one in 16 bits, so no table may
// reach memoMaxRecords records. The Γ-point, round and Radon-family tables
// drop at bounds below it. An interner is never dropped: its generation
// ends at maxValues ids, and walks that began a candidate set under it
// finish that set in it. Here four goroutines walk fresh values on a
// 4-worker engine whose interners end every 40 values, and every interner
// seen must stay within one candidate set per worker beyond its bound.
func TestMemoRecordIndexBound(t *testing.T) {
	if got := unsafe.Sizeof(memoRecord[memoResult]{}); got != 32 {
		t.Errorf("Γ-point record of %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(memoRecord[struct{}]{}); got != 24 {
		t.Errorf("interner record of %d bytes, want 24", got)
	}
	const goroutines, workers, maxValues, k = 4, 4, 40, 5
	for name, bound := range map[string]int{
		"Γ-point": maxMemoEntries, "round": maxZiEntries, "Radon-family": maxFamEntries,
		"interner": maxInternValues + goroutines*workers*k,
	} {
		if bound >= memoMaxRecords {
			t.Errorf("%s table bound %d reaches memoMaxRecords = %d", name, bound, memoMaxRecords)
		}
	}

	eng := newEngine(workers, maxMemoEntries, maxValues)
	var mu sync.Mutex
	seen := map[*valueIDs]bool{}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(31 + g)))
			for range 40 {
				v := eng.values.Load()
				if _, _, err := eng.AverageGamma(randomTuples(rng, 7, 1), k, 2, safearea.MethodAuto); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen[v], seen[eng.values.Load()] = true, true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if gens := eng.values.Load().gen; gens < 10 {
		t.Errorf("%d generations, want the interner bound to end many", gens)
	}
	most := 0
	for v := range seen {
		n, _ := v.ids.memoEntries()
		most = max(most, n)
	}
	if limit := maxValues + goroutines*workers*k; most > limit {
		t.Fatalf("an interner holds %d values, want ≤ %d: its bound plus one candidate set per worker", most, limit)
	} else {
		t.Logf("largest interner: %d values, bound %d", most, maxValues)
	}
}
