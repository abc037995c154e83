package aad

import (
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// randomOrderBus delivers queued messages in a seeded random order —
// a schedule-fuzz harness for the witness exchange.
type randomOrderBus struct {
	t      *testing.T
	rng    *rand.Rand
	coords map[sim.ProcID]*Coordinator
	queue  []busItem

	results map[sim.ProcID][]Result
}

func newRandomOrderBus(t *testing.T, n, f, dim int, correct []sim.ProcID, seed int64) *randomOrderBus {
	t.Helper()
	b := &randomOrderBus{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		coords:  make(map[sim.ProcID]*Coordinator),
		results: make(map[sim.ProcID][]Result),
	}
	for _, id := range correct {
		c, err := NewCoordinator(n, f, id, dim)
		if err != nil {
			t.Fatalf("NewCoordinator(%d): %v", id, err)
		}
		b.coords[id] = c
	}
	return b
}

func (b *randomOrderBus) start(id sim.ProcID, round int, value geometry.Vector) {
	msgs, err := b.coords[id].StartRound(round, value)
	if err != nil {
		b.t.Fatalf("StartRound(%d): %v", id, err)
	}
	for _, m := range msgs {
		b.broadcastFrom(id, m)
	}
}

func (b *randomOrderBus) broadcastFrom(from sim.ProcID, m Msg) {
	for to := range b.coords {
		b.queue = append(b.queue, busItem{from: from, to: to, msg: m})
	}
}

// drain delivers in random order. Note: random global order still respects
// nothing about per-link FIFO; the witness mechanism's Properties 1–3 do
// not depend on FIFO for safety (only the report-prefix optimization's
// liveness argument uses it), so this is a legal stress.
func (b *randomOrderBus) drain() {
	for len(b.queue) > 0 {
		i := b.rng.Intn(len(b.queue))
		it := b.queue[i]
		b.queue[i] = b.queue[len(b.queue)-1]
		b.queue = b.queue[:len(b.queue)-1]
		coord, ok := b.coords[it.to]
		if !ok {
			continue
		}
		out, results := coord.Handle(it.from, it.msg)
		for _, o := range out {
			b.broadcastFrom(it.to, o)
		}
		b.results[it.to] = append(b.results[it.to], results...)
	}
}

// TestExchangeRandomSchedules fuzzes the exchange across many random
// delivery schedules and checks Properties 1–3 on every one.
func TestExchangeRandomSchedules(t *testing.T) {
	const n, f = 4, 1
	for seed := int64(0); seed < 30; seed++ {
		b := newRandomOrderBus(t, n, f, 1, ids(0, 1, 2, 3), seed)
		values := map[sim.ProcID]geometry.Vector{
			0: {0}, 1: {1}, 2: {2}, 3: {3},
		}
		for id, v := range values {
			b.start(id, 1, v)
		}
		b.drain()
		results := make(map[sim.ProcID]Result, n)
		for id, rs := range b.results {
			if len(rs) != 1 {
				t.Fatalf("seed %d: process %d completed %d rounds", seed, id, len(rs))
			}
			results[id] = rs[0]
		}
		if len(results) != n {
			t.Fatalf("seed %d: %d of %d completed", seed, len(results), n)
		}
		checkProperties(t, n, f, values, results)
	}
}

// TestExchangeRandomSchedulesWithEquivocator adds a Byzantine equivocator
// under random scheduling.
func TestExchangeRandomSchedulesWithEquivocator(t *testing.T) {
	const n, f = 4, 1
	correct := ids(0, 1, 2)
	for seed := int64(0); seed < 20; seed++ {
		b := newRandomOrderBus(t, n, f, 1, correct, seed)
		values := map[sim.ProcID]geometry.Vector{0: {0}, 1: {1}, 2: {2}}
		for _, id := range correct {
			b.start(id, 1, values[id])
		}
		// Byzantine process 3: conflicting INITs and noisy reports,
		// interleaved randomly with everything else.
		for i, to := range correct {
			v := geometry.Vector{30}
			if i == 2 {
				v = geometry.Vector{99}
			}
			b.queue = append(b.queue, busItem{from: 3, to: to, msg: Msg{Kind: KindRBC, RBC: initMsg(3, 1, v)}})
			b.queue = append(b.queue, busItem{from: 3, to: to, msg: Msg{Kind: KindReport, Report: ReportMsg{Round: 1, Origin: 0}}})
		}
		b.drain()
		results := make(map[sim.ProcID]Result, len(correct))
		for id, rs := range b.results {
			if len(rs) != 1 {
				t.Fatalf("seed %d: process %d completed %d rounds", seed, id, len(rs))
			}
			results[id] = rs[0]
		}
		if len(results) != len(correct) {
			t.Fatalf("seed %d: %d of %d completed", seed, len(results), len(correct))
		}
		checkProperties(t, n, f, values, results)
	}
}

// TestExchangeRandomSchedulesWithOutOfRangeRounds adds a Byzantine process
// that names rounds outside [1, R] — in reports and in every RBC phase —
// interleaved randomly with the honest round: nothing it sends may create
// state, and the exchange must complete as if it were silent.
func TestExchangeRandomSchedulesWithOutOfRangeRounds(t *testing.T) {
	const n, f, R = 4, 1, 2
	correct := ids(0, 1, 2)
	for seed := int64(0); seed < 20; seed++ {
		b := newRandomOrderBus(t, n, f, 1, correct, seed)
		values := map[sim.ProcID]geometry.Vector{0: {0}, 1: {1}, 2: {2}}
		for _, id := range correct {
			b.coords[id].SetHorizon(R)
			b.start(id, 1, values[id])
		}
		sent := 0
		for _, to := range correct {
			for _, round := range []int{0, -1, R + 1, R + 2 + int(seed), 1 << 31, -(1 << 40)} {
				for origin := sim.ProcID(0); origin < n; origin++ {
					b.queue = append(b.queue, busItem{from: 3, to: to, msg: Msg{Kind: KindReport, Report: ReportMsg{Round: round, Origin: origin}}})
					rbc := initMsg(origin, round, geometry.Vector{float64(round)})
					rbc.Phase = broadcast.RBCPhase(1 + (sent+int(origin))%3)
					b.queue = append(b.queue, busItem{from: 3, to: to, msg: Msg{Kind: KindRBC, RBC: rbc}})
				}
				sent += 2 * n
			}
		}
		b.drain()
		results := make(map[sim.ProcID]Result, len(correct))
		for id, rs := range b.results {
			if len(rs) != 1 {
				t.Fatalf("seed %d: process %d completed %d rounds", seed, id, len(rs))
			}
			results[id] = rs[0]
		}
		if len(results) != len(correct) {
			t.Fatalf("seed %d: %d of %d completed", seed, len(results), len(correct))
		}
		checkProperties(t, n, f, values, results)
		for id, c := range b.coords {
			if got, want := c.Dropped(), sent/len(correct); got != want {
				t.Errorf("seed %d: process %d dropped %d messages, want %d", seed, id, got, want)
			}
			if slots, states := c.stateSize(); slots > R+1 || states != 1 {
				t.Errorf("seed %d: process %d holds %d round slots and %d round tables, want ≤ %d and 1", seed, id, slots, states, R+1)
			}
		}
	}
}

// initMsg builds an RBC INIT for Byzantine injection.
func initMsg(origin sim.ProcID, tag int, v geometry.Vector) broadcast.RBCMsg {
	return broadcast.RBCMsg{Phase: broadcast.RBCInit, Origin: origin, Tag: tag, Value: v}
}
