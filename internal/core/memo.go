package core

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// memoMinSlots is the slot count a table starts from after construction,
// Reset or a drop at its bound; the array then grows only with content.
const memoMinSlots = 32

// memoTable is the Engine's get-or-create map from byte keys to entries of
// type V: an open-addressed hash table whose hits take no lock.
//
// A lookup hashes the key with maphash, loads the current slot array and
// probes it linearly, comparing the slot's hash and then the full stored key
// (so a 64-bit hash collision costs one extra compare, never a wrong entry).
// A miss takes the table mutex, re-probes the current array — an entry
// another goroutine inserted, or moved by a resize, since the lock-free probe
// is found there — and inserts, doubling the array whenever the load would
// pass ½. Arrays are never written after being replaced, so a reader still
// probing a replaced array sees a consistent, ½-loaded table and at worst
// misses into the locked path.
//
// An insert carves its node and a copy of its key from the table's current
// chunks instead of allocating them. A fresh chunk serves an eighth as many
// entries as the table already holds, at least one and at most
// memoMaxChunk, and is used to the end of its allocation size class: chunks
// start at single entries, grow with content, and leave at most about an
// eighth of it unused. Carved memory is never written again, so readers
// need no lock to read a node or its key.
//
// The table is bounded: an insert at max entries first drops every entry by
// swapping in a fresh minimal array and releasing the chunks (entries are
// pure functions of their key, so a drop only costs recomputation), and
// onDrop, when set, runs under the table lock at that moment and at reset.
// onInsert, when set, runs under the table lock on every new entry before
// it is published, so lock-free readers see what it wrote.
//
// The table never looks inside its keys; the Engine chooses them. Γ-point
// keys name each member by its interned id (valueIDs), which is exact
// because within one memo generation ids are a bijection on the values'
// geometry.AppendKey bytes; every Γ-point key carries its generation, so
// ids reissued after a drop cannot hit an older generation's entries. The
// round (zi) and Radon-family (fams) tables key on the values' bytes.
// Interners are memoTables too, with onInsert assigning ids.
type memoTable[V any] struct {
	seed     maphash.Seed
	max      int
	onDrop   func()
	onInsert func(*V)
	slots    atomic.Pointer[[]memoSlot[V]]

	mu    sync.Mutex
	n     int           // entries in the current array; guarded by mu
	nodes []memoNode[V] // uncarved rest of the node chunk; guarded by mu
	// keys is the key chunk. A strings.Builder only ever appends, so each
	// key is a substring of its String() that later writes cannot touch.
	keys strings.Builder // guarded by mu
}

// memoSlot is one slot of an array. A slot is written once: hash, then the
// node pointer that publishes it, so a reader that loads a non-nil node
// also sees its hash. Keeping the hash beside the pointer lets a probe skip
// a non-matching slot without touching its node.
type memoSlot[V any] struct {
	hash uint64
	node atomic.Pointer[memoNode[V]]
}

// memoNode is one table entry: the key it was created for (a substring of a
// key chunk) and the value handed out for it.
type memoNode[V any] struct {
	key string
	val V
}

// memoMaxChunk bounds how many entries one chunk serves.
const memoMaxChunk = 128

func newMemoTable[V any](max int, onDrop func()) *memoTable[V] {
	t := &memoTable[V]{seed: maphash.MakeSeed(), max: max, onDrop: onDrop}
	t.slots.Store(minMemoSlots[V]())
	return t
}

// minMemoSlots returns a fresh array of memoMinSlots empty slots.
func minMemoSlots[V any]() *[]memoSlot[V] {
	s := make([]memoSlot[V], memoMinSlots)
	return &s
}

// find returns the node stored under (h, key), or nil with the index of the
// empty slot that ends key's probe sequence. len(s) is a power of two.
func find[V any](s []memoSlot[V], key []byte, h uint64) (uint64, *memoNode[V]) {
	mask := uint64(len(s) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		nd := s[i].node.Load()
		if nd == nil || s[i].hash == h && nd.key == string(key) {
			return i, nd
		}
	}
}

// get returns the entry for key, creating a zero one if needed. Equal keys
// get the same pointer until the table is dropped.
func (t *memoTable[V]) get(key []byte) *V {
	return t.getHashed(key, maphash.Bytes(t.seed, key))
}

// getHashed is get with the key's hash supplied (tests force collisions
// through it).
func (t *memoTable[V]) getHashed(key []byte, h uint64) *V {
	if _, nd := find(*t.slots.Load(), key, h); nd != nil {
		return &nd.val
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := *t.slots.Load()
	i, nd := find(s, key, h)
	if nd != nil {
		return &nd.val
	}
	switch {
	case t.n >= t.max:
		t.dropLocked()
		s = *t.slots.Load()
		i, _ = find(s, key, h)
	case 2*(t.n+1) > len(s):
		s = t.grow(s)
		i, _ = find(s, key, h)
	}
	nd = t.carve(key)
	if t.onInsert != nil {
		t.onInsert(&nd.val)
	}
	s[i].hash = h
	s[i].node.Store(nd)
	t.n++
	return &nd.val
}

// carve takes a zero node and a copy of key from the current chunks,
// starting new ones sized to the table's content when they run out.
// Caller holds mu.
func (t *memoTable[V]) carve(key []byte) *memoNode[V] {
	chunk := min(max(t.n/8, 1), memoMaxChunk)
	if len(t.nodes) == 0 {
		t.nodes = slices.Grow([]memoNode[V](nil), chunk) // capacity to the size class
		t.nodes = t.nodes[:cap(t.nodes)]
	}
	nd := &t.nodes[0]
	t.nodes = t.nodes[1:]
	if t.keys.Cap()-t.keys.Len() < len(key) {
		t.keys = strings.Builder{}
		t.keys.Grow(chunk * len(key))
	}
	start := t.keys.Len()
	t.keys.Write(key)
	nd.key = t.keys.String()[start:]
	return nd
}

// grow publishes a doubled copy of s and returns it. Caller holds mu.
func (t *memoTable[V]) grow(s []memoSlot[V]) []memoSlot[V] {
	ns := make([]memoSlot[V], 2*len(s))
	mask := uint64(len(ns) - 1)
	for i := range s {
		nd := s[i].node.Load()
		if nd == nil {
			continue
		}
		// Keys are distinct, so the node goes to the first empty slot.
		j := s[i].hash & mask
		for ns[j].node.Load() != nil {
			j = (j + 1) & mask
		}
		ns[j].hash = s[i].hash
		ns[j].node.Store(nd)
	}
	t.slots.Store(&ns)
	return ns
}

// dropLocked swaps in a fresh minimal array and releases the chunks.
// Caller holds mu.
func (t *memoTable[V]) dropLocked() {
	t.slots.Store(minMemoSlots[V]())
	t.n = 0
	t.nodes, t.keys = nil, strings.Builder{}
	if t.onDrop != nil {
		t.onDrop()
	}
}

// reset drops every entry.
func (t *memoTable[V]) reset() {
	t.mu.Lock()
	t.dropLocked()
	t.mu.Unlock()
}
