package aad

import (
	"runtime"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/sim"
)

// stateSize counts the tables the coordinator and its RBC hold: what an
// out-of-range round must not add to.
func (c *Coordinator) stateSize() (roundSlots, roundStates int) {
	for _, st := range c.rounds {
		if st != nil {
			roundStates++
		}
	}
	return len(c.rounds), roundStates
}

// TestOutOfRangeRoundsKeepNoState is the one-peer memory-DoS regression: a
// Byzantine link naming 10⁵ distinct rounds outside [1, R] — as reports and
// as RBC messages, the wire carries either as a uint32 — leaves the
// coordinator's tables and the heap where they were, is counted, and does
// not keep the round in progress from completing. Before the horizon every
// such message allocated an n×n round table (and an RBC slab) for good.
func TestOutOfRangeRoundsKeepNoState(t *testing.T) {
	const n, f, R, spam = 4, 1, 3, 100000
	b := newBus(t, n, f, 1, ids(0, 1, 2))
	for _, c := range b.coords {
		c.SetHorizon(R)
	}
	values := map[sim.ProcID]geometry.Vector{0: vec(0), 1: vec(1), 2: vec(2)}
	for id, v := range values {
		b.start(id, 1, v)
	}
	victim := b.coords[0]
	slots0, states0 := victim.stateSize()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := vec(7)
	for k := 0; k < spam; k++ {
		round := R + 1 + k
		if k%4 == 0 {
			round = -k // zero and negatives too
		}
		var m Msg
		if k%2 == 0 {
			m = Msg{Kind: KindReport, Report: ReportMsg{Round: round, Origin: sim.ProcID(k % n)}}
		} else {
			m = Msg{Kind: KindRBC, RBC: broadcast.RBCMsg{Phase: broadcast.RBCPhase(1 + k%3), Origin: 3, Tag: round, Value: v}}
		}
		if out, res := victim.Handle(3, m); out != nil || res != nil {
			t.Fatalf("round %d produced output", round)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if got := victim.Dropped(); got != spam {
		t.Errorf("Dropped() = %d, want %d", got, spam)
	}
	if slots, states := victim.stateSize(); slots != slots0 || states != states0 {
		t.Errorf("round table grew from %d slots / %d states to %d / %d", slots0, states0, slots, states)
	}
	if !raceflag.Enabled {
		// 10⁵ round tables were ≥ 10 MB; allow the test's own noise.
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
			t.Errorf("HeapAlloc grew by %d bytes over %d out-of-range messages", grew, spam)
		}
	}

	b.drain()
	results := make(map[sim.ProcID]Result, len(values))
	for id, rs := range b.results {
		if len(rs) != 1 {
			t.Fatalf("process %d completed %d rounds, want 1", id, len(rs))
		}
		results[id] = rs[0]
	}
	if len(results) != len(values) {
		t.Fatalf("%d of %d completed after the spam", len(results), len(values))
	}
	checkProperties(t, n, f, values, results)
	if _, err := victim.StartRound(R+1, vec(0)); err == nil {
		t.Error("StartRound past the horizon must fail")
	}
}

// TestCoordinatorHandleAllocs is the allocation budget of the steady-state
// step on a warm round (its table exists, the RBC instance has seen the
// value): reports, echoes, readies, the delivery and the report it emits
// all allocate nothing. Completing a round is not in the budget — it
// allocates once, for the witness-prefix list.
func TestCoordinatorHandleAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, f, rounds = 5, 1, 3
	c, err := NewCoordinator(n, f, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := vec(0.5, 0.25)
	var rbcMsgs, reports []busItem
	for round := 1; round <= rounds; round++ {
		for origin := sim.ProcID(0); origin < n; origin++ {
			// Warm: the INIT makes the round's RBC slab and registers the
			// value, the first report makes the round's table.
			c.Handle(origin, Msg{Kind: KindRBC, RBC: initMsg(origin, round, v)})
			c.Handle(origin, Msg{Kind: KindReport, Report: ReportMsg{Round: round, Origin: origin}})
			for _, ph := range []broadcast.RBCPhase{broadcast.RBCEcho, broadcast.RBCReady} {
				for from := sim.ProcID(0); from < n; from++ {
					rbcMsgs = append(rbcMsgs, busItem{from: from, msg: Msg{Kind: KindRBC,
						RBC: broadcast.RBCMsg{Phase: ph, Origin: origin, Tag: round, Value: v}}})
				}
			}
			for from := sim.ProcID(0); from < n; from++ {
				if from != origin {
					reports = append(reports, busItem{from: from, msg: Msg{Kind: KindReport, Report: ReportMsg{Round: round, Origin: origin}}})
				}
			}
		}
	}
	for _, tc := range []struct {
		name     string
		msgs     []busItem
		wantMsgs int // messages the measured calls emit in total
	}{
		// Per (round, origin): the READY and the delivery's report.
		{"rbc", rbcMsgs, 2 * rounds * n},
		{"report", reports, 0},
	} {
		next, emitted := 0, 0
		allocs := testing.AllocsPerRun(len(tc.msgs)-1, func() {
			out, _ := c.Handle(tc.msgs[next].from, tc.msgs[next].msg)
			emitted += len(out)
			next++
		})
		if allocs != 0 {
			t.Errorf("%s on a warm round: %v allocs per message, want 0", tc.name, allocs)
		}
		if emitted != tc.wantMsgs {
			t.Errorf("%s: measured calls emitted %d messages, want %d", tc.name, emitted, tc.wantMsgs)
		}
	}
}

// TestCoordinatorReturnsScratch documents the return contract of
// StartRound and Handle: the slices are the coordinator's scratch, good
// until its next call; messages copied out by value stay valid, and so does
// a Result (its slices are the round's frozen tables).
func TestCoordinatorReturnsScratch(t *testing.T) {
	c, err := NewCoordinator(4, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	own := vec(5)
	started, err := c.StartRound(1, own)
	if err != nil {
		t.Fatal(err)
	}
	own[0] = -1 // the caller's vector is the caller's again
	kept := started[0]
	echoed, _ := c.Handle(1, Msg{Kind: KindRBC, RBC: initMsg(1, 1, vec(9))})
	if &started[0] != &echoed[0] {
		t.Fatal("Handle returned fresh storage; the scratch contract (and its allocation budget) is gone")
	}
	if started[0].RBC.Phase != broadcast.RBCEcho {
		t.Errorf("the retained StartRound slice reads phase %v; expected the next call's ECHO", started[0].RBC.Phase)
	}
	if kept.RBC.Phase != broadcast.RBCInit || !kept.RBC.Value.Equal(vec(5)) {
		t.Errorf("the copied-out INIT changed: %+v", kept)
	}
}
