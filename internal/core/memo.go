package core

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/geometry"
)

// memoMinSlots is the slot count a table starts from after construction,
// Reset or a drop at its bound; the array then grows only with content.
const memoMinSlots = 32

// memoInlineKey is the longest key a record holds inline: a Γ-point key of
// seven members with ids and generation below 2¹⁴ (4 + 2 + 7·2 bytes), and
// with the record's state word and value it makes a 32-byte record. Longer
// keys live in the store's key arena.
const memoInlineKey = 20

// memoMaxRecords bounds a store's records: a slot holds a record's index
// plus one in 16 bits.
const memoMaxRecords = 1<<16 - 1

// memoTable is the Engine's get-or-create map from byte keys to records
// holding a V: an open-addressed hash table whose hits take no lock.
//
// A slot is one atomic 32-bit word: the low 16 bits of its key's hash
// above its record's index plus one (0: empty), so a table holds at most
// memoMaxRecords records. The probe position comes from the same 16 bits,
// so a resize re-places slots without reading records. Records live in a
// store (memoStore) of append-only arenas; a record holds its key inline
// when it has at most memoInlineKey bytes, else the key's index in the key
// arena, and a computed entry's point (solveOnce) lives in the float
// arena. Records are numbered densely from 0 in insertion order: the
// interner's ids.
//
// A lookup hashes the key with maphash, loads the current slots and probes
// linearly, comparing the slot's hash bits and then the record's key (a
// collision costs one extra compare, never a wrong entry). A miss takes
// the table mutex, re-probes the current array — an entry another
// goroutine inserted, or moved by a resize, since the lock-free probe is
// found there — and inserts, doubling the array whenever the load would
// pass ¾ (sixteen slots share a cache line). Arrays are never written after
// being replaced, so a reader still probing one sees a consistent table
// and at worst misses into the locked path. Arena memory is written before
// the slot or state store that publishes it and is never moved or written
// again, so readers need no lock.
//
// The table is bounded: an insert at max entries (max ≤ memoMaxRecords)
// first drops every entry by swapping in a fresh store (entries are pure
// functions of their key, so a drop only costs recomputation), and onDrop,
// when set, runs under the table lock at that moment and at reset. A
// lookup reads everything from the store it found the record in.
//
// The table never looks inside its keys; the Engine chooses them. Γ-point
// keys name each member by its interned id (valueIDs), which is exact
// because within one memo generation ids are a bijection on the values'
// geometry.AppendKey bytes; every Γ-point key carries its generation, so
// ids reissued after a drop cannot hit an older generation's entries. The
// round (zi) and Radon-family (fams) tables key on the values' bytes.
type memoTable[V any] struct {
	seed   maphash.Seed
	max    int
	onDrop func()
	slots  atomic.Pointer[memoSlots[V]]

	mu   sync.Mutex
	done sync.Cond // broadcast when a pending record leaves pending; L is &mu
}

// memoSlots is a slot array and the store its records live in, published
// together so that a lookup loads one pointer.
type memoSlots[V any] struct {
	words []atomic.Uint32
	st    *memoStore[V]
}

// memoStore is a table's arenas between drops.
type memoStore[V any] struct {
	recs   memoArena[memoRecord[V]]
	keys   memoArena[byte]    // keys longer than memoInlineKey
	floats memoArena[float64] // points of computed entries
	errs   map[uint32]error   // errors of failed records; guarded by the table's mu
}

// memoRecord is one entry. meta holds the key's length above a
// memoStateBits-bit state: a record starts pending, and solveOnce moves it
// to done or failed once, after writing val. val comes first, so a
// zero-size V adds no trailing padding.
type memoRecord[V any] struct {
	val  V
	key  [memoInlineKey]byte // the key, or its key-arena index
	meta atomic.Uint32
}

const (
	memoPending = iota
	memoDone
	memoFailed

	memoStateBits = 2
	memoStateMask = 1<<memoStateBits - 1
)

// memoChunkBits bounds a record chunk to 2^memoChunkBits records.
const memoChunkBits = 7

func newMemoTable[V any](max int, onDrop func()) *memoTable[V] {
	t := &memoTable[V]{seed: maphash.MakeSeed(), max: max}
	t.done.L = &t.mu
	t.dropLocked()
	t.onDrop = onDrop
	return t
}

// memoArena is an append-only run of T addressed by dense uint32 indices.
// Chunk c holds indices [2^c − 1, 2^(c+1) − 1) until chunks reach 2^bits
// elements, and 2^bits each from then on, so chunks grow with content and
// leave at most one chunk's worth unused. A carve that does not fit the
// rest of its chunk starts the next one; a carve longer than that chunk
// gets it sized to fit.
type memoArena[T any] struct {
	chunks atomic.Pointer[[][]T]
	next   uint32 // first uncarved index; guarded by the table's mu
	bits   uint8
}

// memoChunkOf returns the chunk of an arena with chunks of at most 2^b
// elements that holds index i, i's offset in it, and the chunk's nominal
// size.
func memoChunkOf(i uint32, b uint8) (c, off, size uint32) {
	ramp := uint32(1)<<b - 1 // indices in the growing chunks
	if i < ramp {
		c = uint32(bits.Len32(i+1)) - 1
		return c, i + 1 - 1<<c, 1 << c
	}
	i -= ramp
	return uint32(b) + i>>b, i & ramp, ramp + 1
}

// carve returns the index of n fresh contiguous elements, and the
// elements. Caller holds the table's mu.
func (a *memoArena[T]) carve(n int) (uint32, []T) {
	if n == 0 {
		return 0, nil
	}
	i := a.next
	c, off, size := memoChunkOf(i, a.bits)
	if off > 0 && int(size-off) < n {
		i += size - off
		c, off, size = memoChunkOf(i, a.bits)
	}
	var dir [][]T
	if p := a.chunks.Load(); p != nil {
		dir = *p
	}
	if off == 0 {
		if int(c) >= len(dir) {
			grown := make([][]T, max(2*len(dir), int(c)+1, 8))
			copy(grown, dir)
			a.chunks.Store(&grown)
			dir = grown
		}
		dir[c] = make([]T, max(int(size), n))
	}
	a.next = i + min(uint32(n), size)
	return i, dir[c][off : int(off)+n : int(off)+n]
}

// at returns the n elements carved at i, capped so that appending to them
// cannot reach a neighbour.
func (a *memoArena[T]) at(i uint32, n int) []T {
	if n == 0 {
		return nil
	}
	c, off, _ := memoChunkOf(i, a.bits)
	return (*a.chunks.Load())[c][off : int(off)+n : int(off)+n]
}

// key returns r's key.
func (st *memoStore[V]) key(r *memoRecord[V]) []byte {
	n := int(r.meta.Load() >> memoStateBits)
	if n <= memoInlineKey {
		return r.key[:n]
	}
	return st.keys.at(binary.LittleEndian.Uint32(r.key[:]), n)
}

// find returns key's record and its index, or a nil record and the slot
// that ends key's probe sequence. len(s.words) is a power of two.
func (s *memoSlots[V]) find(key []byte, h uint16) (slot int, i uint32, r *memoRecord[V]) {
	mask := len(s.words) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		w := s.words[slot].Load()
		if w == 0 {
			return slot, 0, nil
		}
		if uint16(w>>16) != h {
			continue
		}
		i = w&0xffff - 1
		c, off, _ := memoChunkOf(i, memoChunkBits)
		r = &(*s.st.recs.chunks.Load())[c][off]
		if string(s.st.key(r)) == string(key) {
			return slot, i, r
		}
	}
}

// get returns key's record, its index and the store it lives in, inserting
// a pending record if key is absent; inserted reports that. Equal keys get
// the same record until the table is dropped.
func (t *memoTable[V]) get(key []byte) (st *memoStore[V], i uint32, r *memoRecord[V], inserted bool) {
	return t.getHashed(key, maphash.Bytes(t.seed, key))
}

// getHashed is get with the key's hash supplied (tests force collisions
// through it). Only its low 16 bits are used.
func (t *memoTable[V]) getHashed(key []byte, hash uint64) (*memoStore[V], uint32, *memoRecord[V], bool) {
	h := uint16(hash)
	s := t.slots.Load()
	if _, i, r := s.find(key, h); r != nil {
		return s.st, i, r, false
	}
	return t.insert(key, h)
}

// insert is get's locked path.
func (t *memoTable[V]) insert(key []byte, h uint16) (*memoStore[V], uint32, *memoRecord[V], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots.Load()
	slot, i, r := s.find(key, h)
	if r != nil {
		return s.st, i, r, false
	}
	switch n := int(s.st.recs.next); {
	case n >= t.max:
		s = t.dropLocked()
		slot, _, _ = s.find(key, h)
	case 4*(n+1) > 3*len(s.words):
		s = t.grow(s)
		slot, _, _ = s.find(key, h)
	}
	st := s.st
	i, recs := st.recs.carve(1)
	r = &recs[0]
	if len(key) <= memoInlineKey {
		copy(r.key[:], key)
	} else {
		at, long := st.keys.carve(len(key))
		copy(long, key)
		binary.LittleEndian.PutUint32(r.key[:], at)
	}
	r.meta.Store(uint32(len(key)) << memoStateBits)
	s.words[slot].Store(uint32(h)<<16 | (i + 1))
	return st, i, r, true
}

// grow publishes a doubled copy of s and returns it. Caller holds mu.
func (t *memoTable[V]) grow(s *memoSlots[V]) *memoSlots[V] {
	ns := &memoSlots[V]{words: make([]atomic.Uint32, 2*len(s.words)), st: s.st}
	mask := len(ns.words) - 1
	for i := range s.words {
		w := s.words[i].Load()
		if w == 0 {
			continue
		}
		// Keys are distinct, so the word goes to the first empty slot.
		j := int(w>>16) & mask
		for ns.words[j].Load() != 0 {
			j = (j + 1) & mask
		}
		ns.words[j].Store(w)
	}
	t.slots.Store(ns)
	return ns
}

// dropLocked publishes memoMinSlots empty slots over a fresh store, whose
// float and key chunks top out at 4 KiB, and returns them. Caller holds mu.
func (t *memoTable[V]) dropLocked() *memoSlots[V] {
	st := &memoStore[V]{}
	st.recs.bits, st.keys.bits, st.floats.bits = memoChunkBits, 12, 9
	s := &memoSlots[V]{words: make([]atomic.Uint32, memoMinSlots), st: st}
	t.slots.Store(s)
	if t.onDrop != nil {
		t.onDrop()
	}
	return s
}

// reset drops every entry.
func (t *memoTable[V]) reset() {
	t.mu.Lock()
	t.dropLocked()
	t.mu.Unlock()
}

// memoResult is a computed record's value: where its point lies in the
// store's float arena (memoNoPoint: it has none), and one count (a prefix
// entry's certification, a reduction's size). The point's dimension is the
// caller's (solveOnce), so a record is 32 bytes and a chunk of
// 2^memoChunkBits fills its 4 KiB size class.
type memoResult struct {
	pt, n uint32
}

// memoNoPoint is the point index of a computed record whose fill returned
// no point: an uncertified prefix entry.
const memoNoPoint = ^uint32(0)

// solveOnce returns key's point, of dimension dim, and count, computing
// them with fill when key is new. Exactly one caller computes; a caller
// that meets the record while it is pending waits on the table, and every
// caller gets the same point — carved into the store's float arena,
// shared, never to be mutated; nil if fill returned none — or the same
// error. fresh reports whether this call computed.
func solveOnce(t *memoTable[memoResult], key []byte, dim int, fill func() (geometry.Vector, uint32, error)) (pt geometry.Vector, n uint32, fresh bool, err error) {
	st, i, r, fresh := t.get(key)
	if fresh {
		p, cnt, ferr := fill()
		t.mu.Lock()
		state := uint32(memoDone)
		if ferr != nil {
			if st.errs == nil {
				st.errs = make(map[uint32]error)
			}
			st.errs[i], state = ferr, memoFailed
		} else {
			r.val = memoResult{pt: memoNoPoint, n: cnt}
			if len(p) != 0 {
				at, fl := st.floats.carve(dim)
				copy(fl, p)
				r.val.pt = at
			}
		}
		r.meta.Add(state)
		t.done.Broadcast()
		t.mu.Unlock()
	}
	if r.meta.Load()&memoStateMask != memoDone {
		t.mu.Lock()
		for r.meta.Load()&memoStateMask == memoPending {
			t.done.Wait()
		}
		err = st.errs[i]
		t.mu.Unlock()
		if err != nil {
			return nil, 0, fresh, err
		}
	}
	if r.val.pt == memoNoPoint {
		return nil, r.val.n, fresh, nil
	}
	return st.floats.at(r.val.pt, dim), r.val.n, fresh, nil
}
