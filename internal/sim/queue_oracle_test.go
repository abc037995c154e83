package sim

import (
	"math/rand"
	"testing"
	"time"
)

// eventQueue is the global 4-ary event heap the engine used before the lane
// queue, kept verbatim as the reference: (time, seq) is a total order, so
// any correct priority queue pops the same sequence, and laneQueue must
// match this one pop for pop.
type eventQueue []event

// before is the strict (time, seq) order.
func (q eventQueue) before(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.before(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release the Message reference
	h = h[:last]
	*q = h
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		best := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if h.before(c, best) {
				best = c
			}
		}
		if !h.before(best, i) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// driveQueues interprets ops as an interleaving of pushes and pops applied
// to a laneQueue and the oracle heap alike, and fails on the first
// difference. Three bytes make a push — link endpoints and a time step past
// the link's previous arrival, where step 0 reuses that arrival time (the
// queue needs only (time, seq) monotonicity per link, which is weaker than
// the engine's strictly increasing times) — and one byte makes a pop. Small
// steps from a shared origin make equal timestamps across links common.
func driveQueues(t *testing.T, n int, ops []byte) {
	t.Helper()
	lq := newLaneQueue(n)
	var oracle eventQueue
	last := make([]time.Duration, n*n)
	var seq uint64
	pop := func() {
		if got, want := lq.heap[0].at, oracle[0].at; got != want {
			t.Fatalf("earliest arrival = %v, oracle %v", got, want)
		}
		if got, want := lq.pop(), oracle.pop(); got != want {
			t.Fatalf("pop = %+v, oracle %+v", got, want)
		}
	}
	for len(ops) > 0 {
		if lq.empty() != (len(oracle) == 0) {
			t.Fatalf("empty = %v with %d events in the oracle", lq.empty(), len(oracle))
		}
		op := ops[0]
		ops = ops[1:]
		if op%3 == 0 || len(ops) < 2 {
			if len(oracle) > 0 {
				pop()
			}
			continue
		}
		from, to := int(op)%n, int(ops[0])%n
		last[from*n+to] += time.Duration(ops[1] % 4)
		ops = ops[2:]
		seq++
		ev := event{at: last[from*n+to], seq: seq, from: ProcID(from), to: ProcID(to), msg: seq}
		lq.push(ev)
		oracle.push(ev)
	}
	for len(oracle) > 0 {
		pop()
	}
	if !lq.empty() {
		t.Fatal("lane queue holds events after the oracle drained")
	}
}

// TestLaneQueueMatchesHeapOracle: random push/pop interleavings, in
// alternating push-heavy and pop-heavy phases so lanes fill, drain and
// refill (slab slots recycle through the free chain), pop identically from
// the lane queue and the old heap.
func TestLaneQueueMatchesHeapOracle(t *testing.T) {
	for _, n := range []int{1, 2, 5, 15} {
		rng := rand.New(rand.NewSource(int64(n)))
		ops := make([]byte, 0, 60000)
		for phase := 0; phase < 20; phase++ {
			popEvery := 2 + 6*(phase%2) // one op in 2, then one in 8, is a pop
			for i := 0; i < 1000; i++ {
				if rng.Intn(popEvery) == 0 {
					ops = append(ops, 0)
					continue
				}
				ops = append(ops, byte(1+3*rng.Intn(80)+rng.Intn(2)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
		}
		driveQueues(t, n, ops)
	}
}

// FuzzLaneQueue lets the fuzzer choose the interleaving.
func FuzzLaneQueue(f *testing.F) {
	f.Add(uint8(1), []byte{1, 0, 0, 1, 0, 0, 0, 0})
	f.Add(uint8(3), []byte{1, 2, 1, 2, 1, 0, 4, 0, 1, 0, 1, 2, 0, 0, 0, 7, 1, 3})
	f.Add(uint8(15), []byte{16, 3, 0, 31, 7, 0, 46, 11, 0, 0, 0, 16, 3, 1, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, ops []byte) {
		driveQueues(t, 1+int(n%16), ops)
	})
}
