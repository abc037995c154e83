package service

import "sync"

// mailbox is the append-and-swap queue on both sides of the instance loop:
// a peer's outbox is a mailbox[byte] of encoded frames laid end to end, the
// loop's inbox a mailbox[inMsg]. Producers append under the mutex; the single
// consumer swaps the filled buffer for the one it has finished with, so a
// batch of any size changes hands for one lock round-trip and no copy, and
// in the steady state neither side allocates. The bound is in frames.
//
// The doorbell (bell) is separate from the append so a producer can batch
// under it: put reports when it made the mailbox non-empty, and that
// producer rings — at once, or when its own batch is complete. Producers
// that append behind it need not ring: the consumer has not taken the
// mailbox since, and will see their frames when it does.
type mailbox[T any] struct {
	mu     sync.Mutex
	room   sync.Cond // producers blocked at the bound; signalled by take and kick
	buf    []T
	frames int
	limit  int

	// bell holds at most one pending wake-up; the consumer selects on it.
	bell chan struct{}
}

func newMailbox[T any](limit int) *mailbox[T] {
	m := &mailbox[T]{limit: limit, bell: make(chan struct{}, 1)}
	m.room.L = &m.mu
	return m
}

// put appends the leading frames of items — `frames` frames of equal
// length — that fit under the bound and returns how many it appended. At
// the bound it blocks for as long as wait() holds, ringing the consumer
// first; a nil wait never blocks. ring reports that the mailbox was empty
// and the consumer has not been rung for what is in it now.
func (m *mailbox[T]) put(items []T, frames int, wait func() bool) (n int, ring bool) {
	per := len(items) / frames
	m.mu.Lock()
	for n < frames {
		if k := min(m.limit-m.frames, frames-n); k > 0 {
			ring = ring || m.frames == 0
			m.buf = append(m.buf, items[n*per:(n+k)*per]...)
			m.frames += k
			n += k
			continue
		}
		if wait == nil || !wait() {
			break
		}
		m.ring()
		ring = false
		m.room.Wait()
	}
	m.mu.Unlock()
	return n, ring
}

// ring wakes the consumer; a wake-up already pending absorbs it.
func (m *mailbox[T]) ring() {
	select {
	case m.bell <- struct{}{}:
	default:
	}
}

// take swaps the mailbox's contents for spare (the consumer's previous,
// fully processed batch) and returns them with their frame count.
func (m *mailbox[T]) take(spare []T) ([]T, int) {
	m.mu.Lock()
	batch, frames := m.buf, m.frames
	m.buf, m.frames = spare[:0], 0
	m.mu.Unlock()
	if frames > 0 {
		m.room.Broadcast()
	}
	return batch, frames
}

// kick makes blocked producers re-evaluate their wait condition; whoever
// falsifies one (a link going down, the service stopping) calls it after.
func (m *mailbox[T]) kick() {
	m.mu.Lock()
	m.room.Broadcast()
	m.mu.Unlock()
}

// depth reports the frames currently queued.
func (m *mailbox[T]) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frames
}
