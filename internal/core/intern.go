package core

import (
	"encoding/binary"

	"repro/internal/geometry"
	"repro/internal/safearea"
)

// valueIDs is one memo generation's value interner: it names every distinct
// value by a small id, and the Γ-point memo keys built in the generation
// list their members by these ids instead of by their bytes.
//
// The interner is keyed by a value's exact geometry.AppendKey bytes, so two
// values share an id exactly when the bit-exact Key encoding (which
// collapses −0 onto +0) says they are equal. Ids count up from 0 in
// insertion order and the interner is never cleared, only replaced: within
// one generation ids are a bijection on AppendKey bytes, and a key of
// member ids names exactly one multiset, as the byte key did.
//
// A generation ends whenever the Γ-point table drops — at its bound, at
// Reset, and when the current interner reaches its own bound, which drops
// the Γ-point table — and the drop installs a fresh interner with the next
// generation number in one atomic store (Engine.nextGen). Every key carries
// its generation, so ids restarting from 0 can never hit an entry of an
// earlier generation: a walk still holding an old interner builds keys
// that only old-generation inserts match, at worst a dead entry.
type valueIDs struct {
	gen uint64
	ids *memoTable[struct{}] // AppendKey bytes → a record whose index is the id
	e   *Engine
}

// id returns the id of the value whose AppendKey bytes are key. A hit takes
// no lock. The insert that assigns the engine's last id ends the
// generation: it drops the Γ-point table, whose onDrop installs the next
// interner.
func (v *valueIDs) id(key []byte) uint64 {
	_, i, _, inserted := v.ids.get(key)
	if inserted && int(i) == v.e.maxValues-1 {
		v.e.memo.reset()
	}
	return uint64(i)
}

// maxInternValues bounds a generation's interner: the insert that assigns
// the last id ends the generation. Ids below it take at most two uvarint
// bytes in a key.
const maxInternValues = 1 << 14

// nextGen installs a fresh interner under the next generation number. It is
// the Γ-point table's onDrop, so it runs under that table's lock, or at
// construction before the engine is shared. An interner never drops: a
// walk still holding it after its generation ended adds at most the rest of
// one candidate set per worker, so its ids stay far below memoMaxRecords.
// A drop would reissue ids within the generation, so it panics instead.
func (e *Engine) nextGen() {
	e.gens++
	ids := newMemoTable[struct{}](memoMaxRecords, func() {
		panic("core: a value interner outgrew its 16-bit ids")
	})
	e.values.Store(&valueIDs{gen: e.gens, ids: ids, e: e})
}

// Γ-point memo key tags: full candidate sets (and SafePoint's multisets)
// and sub-family prefixes share the generation's key space.
const (
	setKeyTag    = byte('S')
	prefixKeyTag = byte('P')
)

// keyTagAt is the offset of the tag byte in a Γ-point memo key: it leads,
// so a prefix key is retagged in place whatever the meta's length.
const keyTagAt = 0

// appendKeyHead starts a Γ-point memo key: tag, meta and generation, which
// take 5 bytes while d, f and the generation are below 128. The member ids
// follow as uvarints, in canonical order; uvarints are prefix-free, so the
// key decodes to exactly one id sequence.
func appendKeyHead(dst []byte, d, f int, method safearea.Method, tag byte, gen uint64) []byte {
	dst = append(dst, tag)
	dst = appendMeta(dst, d, f, method)
	return binary.AppendUvarint(dst, gen)
}

// maxSeenOrigins bounds a walk's per-origin id cache; tuples of larger
// origins are interned on every use.
const maxSeenOrigins = 1 << 10

// memberID is one candidate-set member as a key needs it: its origin, its
// interned id, and where it sits in the walk's source tuples. It holds no
// pointers, so canonicalizing a set by sorting these costs no write
// barriers; the tuples are gathered in canonical order only for a solve.
type memberID struct {
	origin, at int
	id         uint64
}

// seenValue is the value a walk last interned for one origin, and its id
// plus one (0: none yet).
type seenValue struct {
	v      geometry.Vector
	idPlus uint64
}

// startSet begins collecting a candidate set's members, in the engine's
// current generation.
func (sc *gammaScratch) startSet() {
	if g := sc.e.values.Load(); g != sc.values {
		sc.values = g
		clear(sc.seen)
	}
	sc.members = sc.members[:0]
}

// addMember adds src[at] to the set startSet began. The walk's cache
// answers for a member whose origin last interned the identical value (the
// same backing array; delivered values are immutable), so a walk hashes
// each distinct value once, and a walk whose origins repeat with
// different values stays exact.
func (sc *gammaScratch) addMember(src []tuple, at int) {
	tp := src[at]
	var id uint64
	if o := tp.origin; uint(o) < uint(len(sc.seen)) {
		if s := sc.seen[o]; s.idPlus != 0 && len(s.v) == len(tp.value) && len(s.v) > 0 && &s.v[0] == &tp.value[0] {
			id = s.idPlus - 1
		} else {
			id = sc.intern(tp.value)
			sc.seen[o] = seenValue{tp.value, id + 1}
		}
	} else {
		id = sc.intern(tp.value)
	}
	sc.members = append(sc.members, memberID{origin: tp.origin, at: at, id: id})
}

// intern returns v's id in the scratch's generation.
func (sc *gammaScratch) intern(v geometry.Vector) uint64 {
	sc.vkey = geometry.AppendKey(sc.vkey[:0], v)
	return sc.values.id(sc.vkey)
}

// setKey builds the full-set memo key of the canonical members. It also
// returns the key's length through the first m members, for the prefix key.
func (sc *gammaScratch) setKey(m int) (key []byte, prefixEnd int) {
	key = appendKeyHead(sc.key[:0], sc.d, sc.f, sc.method, setKeyTag, sc.values.gen)
	for i, mb := range sc.members {
		if i == m {
			prefixEnd = len(key)
		}
		key = binary.AppendUvarint(key, mb.id)
	}
	sc.key = key
	return key, prefixEnd
}
