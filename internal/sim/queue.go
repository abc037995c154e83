package sim

import "time"

// event is one scheduled delivery.
type event struct {
	at   time.Duration
	seq  uint64 // tie-break: enqueue order → total determinism
	from ProcID
	to   ProcID
	msg  Message
}

// laneQueue is the engine's pending-event set: one FIFO lane per directed
// link, merged by a 4-ary min-heap over the non-empty lanes' head events.
//
// It is exact because links are FIFO: Engine.send gives every event a later
// arrival time and a larger sequence number than its predecessor on the
// link, so a lane is already sorted by (time, seq) and the global minimum
// is the least lane head. (time, seq) being a total order, the pop sequence
// is the one any correct priority queue produces — bit-identical to the
// global event heap this replaced (the oracle in queue_oracle_test.go).
// What the lanes buy: push is a slab write unless the lane was empty, pop
// sifts one key, and the heap is at most n² pointer-free 24-byte keys —
// cache-resident, no GC write barriers — where the global heap sifted whole
// events, Message pointer included, through log₄(pending) levels.
type laneQueue struct {
	n     int
	lanes []lane    // lane from*n+to
	slots []slot    // slab shared by all lanes; slots[0] is the nil sentinel
	free  int       // head of the free-slot chain, 0 when none
	heap  []laneKey // 4-ary min-heap, one key per non-empty lane
}

// lane is one link's queue: a chain through the slab, head 0 when empty.
type lane struct{ head, tail int }

// slot is one queued event, chained to its lane's next event or, once
// released, to the next free slot. Its link is implied by the lane.
type slot struct {
	at   time.Duration
	seq  uint64
	msg  Message
	next int
}

// laneKey is a lane's head event as the heap sees it. It names the lane by
// its endpoints so pop recovers them without a division.
type laneKey struct {
	at       time.Duration
	seq      uint64
	from, to int32
}

// before is the strict (time, seq) order.
func (k laneKey) before(o laneKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

func newLaneQueue(n int) laneQueue {
	return laneQueue{n: n, lanes: make([]lane, n*n), slots: make([]slot, 1)}
}

// empty reports whether no event is pending.
func (q *laneQueue) empty() bool { return len(q.heap) == 0 }

// push enqueues ev, which must follow its lane's tail in (time, seq) order.
func (q *laneQueue) push(ev event) {
	i := q.free
	if i == 0 {
		i = len(q.slots)
		q.slots = append(q.slots, slot{})
	}
	q.free = q.slots[i].next // 0 for a fresh slot: the chain stays empty
	q.slots[i] = slot{at: ev.at, seq: ev.seq, msg: ev.msg}
	li := int(ev.from)*q.n + int(ev.to)
	ln := &q.lanes[li]
	if ln.head != 0 {
		q.slots[ln.tail].next = i
		ln.tail = i
		return
	}
	ln.head, ln.tail = i, i
	// The lane became non-empty: sift its key up from a new leaf.
	key := laneKey{at: ev.at, seq: ev.seq, from: int32(ev.from), to: int32(ev.to)}
	h := append(q.heap, key)
	c := len(h) - 1
	for c > 0 {
		parent := (c - 1) / 4
		if !key.before(h[parent]) {
			break
		}
		h[c] = h[parent]
		c = parent
	}
	h[c] = key
	q.heap = h
}

// pop removes the (time, seq)-least event; the queue must not be empty.
func (q *laneQueue) pop() event {
	h := q.heap
	key := h[0]
	ln := &q.lanes[int(key.from)*q.n+int(key.to)]
	i := ln.head
	s := &q.slots[i]
	ev := event{at: s.at, seq: s.seq, from: ProcID(key.from), to: ProcID(key.to), msg: s.msg}
	ln.head = s.next
	*s = slot{next: q.free} // release the Message reference
	q.free = i

	// The root's replacement is the lane's new head, or — the lane having
	// drained — the last leaf; either way one key sifts down.
	if ln.head != 0 {
		key.at, key.seq = q.slots[ln.head].at, q.slots[ln.head].seq
	} else {
		key = h[len(h)-1]
		h = h[:len(h)-1]
		q.heap = h
		if len(h) == 0 {
			return ev
		}
	}
	p := 0
	for {
		first := 4*p + 1
		if first >= len(h) {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, len(h)); c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(key) {
			break
		}
		h[p] = h[best]
		p = best
	}
	h[p] = key
	return ev
}
