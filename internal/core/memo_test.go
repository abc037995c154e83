package core

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/safearea"
)

// memoTestKey is a candidate-set-sized key (9 bytes of metadata plus seven
// 2-d values, like sim-rasync-f2's full-multiset keys) that differs from
// its siblings only in its last 8 bytes, so every hit compares the whole
// key.
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

// TestMemoTableAllocBudget: a hit allocates nothing, and a miss allocates
// only the stored key and its node.
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
	if allocs := testing.AllocsPerRun(200, func() {
		tab.get(keys[next])
		next++
	}); allocs > 2 {
		t.Errorf("miss: %v allocs, want ≤ 2", allocs)
	}
}

// TestEngineMemoSizedToContent: after Reset, a few solves leave every slot
// array at its small starting size — a table sized for its bound instead of
// its content would keep that memory reachable from the default engine
// between operations.
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
}
