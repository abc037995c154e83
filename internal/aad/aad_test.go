package aad

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/sim"
)

func vec(xs ...float64) geometry.Vector { return geometry.Vector(xs) }

// bus drives coordinators for the correct processes, delivering broadcasts
// in FIFO or LIFO order; Byzantine traffic is injected explicitly.
type bus struct {
	t      *testing.T
	coords map[sim.ProcID]*Coordinator
	queue  []busItem
	lifo   bool

	results map[sim.ProcID][]Result
}

type busItem struct {
	from sim.ProcID
	to   sim.ProcID
	msg  Msg
}

func newBus(t *testing.T, n, f, dim int, correct []sim.ProcID) *bus {
	t.Helper()
	b := &bus{t: t, coords: make(map[sim.ProcID]*Coordinator), results: make(map[sim.ProcID][]Result)}
	for _, id := range correct {
		c, err := NewCoordinator(n, f, id, dim)
		if err != nil {
			t.Fatalf("NewCoordinator(%d): %v", id, err)
		}
		b.coords[id] = c
	}
	return b
}

func (b *bus) start(id sim.ProcID, round int, value geometry.Vector) {
	msgs, err := b.coords[id].StartRound(round, value)
	if err != nil {
		b.t.Fatalf("StartRound(%d): %v", id, err)
	}
	for _, m := range msgs {
		b.broadcastFrom(id, m)
	}
}

func (b *bus) broadcastFrom(from sim.ProcID, m Msg) {
	for to := range b.coords {
		b.queue = append(b.queue, busItem{from: from, to: to, msg: m})
	}
}

func (b *bus) inject(from, to sim.ProcID, m Msg) {
	b.queue = append(b.queue, busItem{from: from, to: to, msg: m})
}

func (b *bus) drain() {
	for len(b.queue) > 0 {
		var it busItem
		if b.lifo {
			it = b.queue[len(b.queue)-1]
			b.queue = b.queue[:len(b.queue)-1]
		} else {
			it = b.queue[0]
			b.queue = b.queue[1:]
		}
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

func ids(xs ...int) []sim.ProcID {
	out := make([]sim.ProcID, len(xs))
	for i, x := range xs {
		out[i] = sim.ProcID(x)
	}
	return out
}

// tupleSet maps origin → value for property checks.
func tupleSet(res Result) map[sim.ProcID]geometry.Vector {
	out := make(map[sim.ProcID]geometry.Vector, len(res.Tuples))
	for _, tp := range res.Tuples {
		out[tp.Origin] = tp.Value
	}
	return out
}

// checkProperties asserts AAD Properties 1–3 over the correct processes'
// results for one round.
func checkProperties(t *testing.T, n, f int, values map[sim.ProcID]geometry.Vector, results map[sim.ProcID]Result) {
	t.Helper()
	quorum := n - f
	for id, res := range results {
		// Property 2: one tuple per origin (tupleSet dedups; sizes match).
		set := tupleSet(res)
		if len(set) != len(res.Tuples) {
			t.Errorf("process %d: duplicate origins in B", id)
		}
		if len(res.Tuples) < quorum {
			t.Errorf("process %d: |B| = %d < n−f = %d", id, len(res.Tuples), quorum)
		}
		// Property 3: correct origins carry their true values.
		for origin, v := range set {
			if want, ok := values[origin]; ok && !v.Equal(want) {
				t.Errorf("process %d: tuple for %d = %v, want %v", id, origin, v, want)
			}
		}
		if len(res.WitnessPrefixes) < quorum {
			t.Errorf("process %d: %d witnesses, want ≥ %d", id, len(res.WitnessPrefixes), quorum)
		}
		for _, p := range res.WitnessPrefixes {
			if len(p) != quorum {
				t.Errorf("process %d: witness prefix length %d, want %d", id, len(p), quorum)
			}
			// Prefix tuples must all be in B.
			for _, origin := range p {
				if _, ok := set[origin]; !ok {
					t.Errorf("process %d: witness prefix origin %d not in B", id, origin)
				}
			}
		}
	}
	// Property 1: pairwise intersection ≥ n−f.
	for id1, r1 := range results {
		for id2, r2 := range results {
			if id1 >= id2 {
				continue
			}
			s1, s2 := tupleSet(r1), tupleSet(r2)
			common := 0
			for origin, v1 := range s1 {
				if v2, ok := s2[origin]; ok {
					if !v1.Equal(v2) {
						t.Errorf("processes %d/%d disagree on origin %d: %v vs %v", id1, id2, origin, v1, v2)
					}
					common++
				}
			}
			if common < quorum {
				t.Errorf("|B%d ∩ B%d| = %d < n−f = %d (Property 1 violated)", id1, id2, common, quorum)
			}
		}
	}
}

func TestExchangeAllCorrect(t *testing.T) {
	for _, lifo := range []bool{false, true} {
		const n, f = 4, 1
		b := newBus(t, n, f, 2, ids(0, 1, 2, 3))
		b.lifo = lifo
		values := map[sim.ProcID]geometry.Vector{
			0: vec(0, 0), 1: vec(1, 0), 2: vec(0, 1), 3: vec(1, 1),
		}
		for id, v := range values {
			b.start(id, 1, v)
		}
		b.drain()
		results := make(map[sim.ProcID]Result, n)
		for id, rs := range b.results {
			if len(rs) != 1 {
				t.Fatalf("lifo=%v: process %d completed %d rounds, want 1", lifo, id, len(rs))
			}
			results[id] = rs[0]
		}
		if len(results) != n {
			t.Fatalf("lifo=%v: %d of %d completed", lifo, len(results), n)
		}
		checkProperties(t, n, f, values, results)
	}
}

func TestExchangeSilentByzantine(t *testing.T) {
	// Process 3 is silent; the other 4 of n=5 (f=1) must still complete.
	const n, f = 5, 1
	correct := ids(0, 1, 2, 4)
	b := newBus(t, n, f, 1, correct)
	values := map[sim.ProcID]geometry.Vector{0: vec(0), 1: vec(1), 2: vec(2), 4: vec(4)}
	for _, id := range correct {
		b.start(id, 1, values[id])
	}
	b.drain()
	results := make(map[sim.ProcID]Result, len(correct))
	for id, rs := range b.results {
		if len(rs) != 1 {
			t.Fatalf("process %d completed %d rounds", id, len(rs))
		}
		results[id] = rs[0]
	}
	if len(results) != len(correct) {
		t.Fatalf("%d of %d completed", len(results), len(correct))
	}
	checkProperties(t, n, f, values, results)
}

func TestExchangeEquivocatingByzantine(t *testing.T) {
	// Byzantine process 3 RBC-equivocates and spams bogus reports; the
	// correct processes must still satisfy Properties 1–3.
	const n, f = 4, 1
	correct := ids(0, 1, 2)
	b := newBus(t, n, f, 1, correct)
	values := map[sim.ProcID]geometry.Vector{0: vec(0), 1: vec(1), 2: vec(2)}
	for _, id := range correct {
		b.start(id, 1, values[id])
	}
	// Equivocating INITs.
	b.inject(3, 0, Msg{Kind: KindRBC, RBC: broadcast.RBCMsg{Phase: broadcast.RBCInit, Origin: 3, Tag: 1, Value: vec(30)}})
	b.inject(3, 1, Msg{Kind: KindRBC, RBC: broadcast.RBCMsg{Phase: broadcast.RBCInit, Origin: 3, Tag: 1, Value: vec(30)}})
	b.inject(3, 2, Msg{Kind: KindRBC, RBC: broadcast.RBCMsg{Phase: broadcast.RBCInit, Origin: 3, Tag: 1, Value: vec(99)}})
	// Bogus reports: origins never delivered, duplicates, out of range.
	for _, to := range correct {
		b.inject(3, to, Msg{Kind: KindReport, Report: ReportMsg{Round: 1, Origin: 2}})
		b.inject(3, to, Msg{Kind: KindReport, Report: ReportMsg{Round: 1, Origin: 2}})
		b.inject(3, to, Msg{Kind: KindReport, Report: ReportMsg{Round: 1, Origin: 9}})
		b.inject(3, to, Msg{Kind: KindReport, Report: ReportMsg{Round: 7, Origin: 0}})
	}
	b.drain()
	results := make(map[sim.ProcID]Result, len(correct))
	for id, rs := range b.results {
		if len(rs) != 1 {
			t.Fatalf("process %d completed %d rounds", id, len(rs))
		}
		results[id] = rs[0]
	}
	if len(results) != len(correct) {
		t.Fatalf("%d of %d completed", len(results), len(correct))
	}
	checkProperties(t, n, f, values, results)
}

func TestExchangeCommonWitnessPrefix(t *testing.T) {
	// Appendix F: every pair of correct processes must share at least one
	// identical witness prefix (the common correct witness's first n−f
	// reports).
	const n, f = 4, 1
	b := newBus(t, n, f, 1, ids(0, 1, 2, 3))
	for i := 0; i < n; i++ {
		b.start(sim.ProcID(i), 1, vec(float64(i)))
	}
	b.drain()
	prefKey := func(p []sim.ProcID) string {
		out := ""
		for _, id := range p {
			out += string(rune('a' + int(id)))
		}
		return out
	}
	sets := make(map[sim.ProcID]map[string]bool)
	for id, rs := range b.results {
		set := make(map[string]bool)
		for _, p := range rs[0].WitnessPrefixes {
			set[prefKey(p)] = true
		}
		sets[id] = set
	}
	for id1, s1 := range sets {
		for id2, s2 := range sets {
			if id1 >= id2 {
				continue
			}
			shared := false
			for k := range s1 {
				if s2[k] {
					shared = true
					break
				}
			}
			if !shared {
				t.Errorf("processes %d and %d share no witness prefix", id1, id2)
			}
		}
	}
}

func TestExchangeMultipleRounds(t *testing.T) {
	const n, f = 4, 1
	b := newBus(t, n, f, 1, ids(0, 1, 2, 3))
	for round := 1; round <= 3; round++ {
		for i := 0; i < n; i++ {
			b.start(sim.ProcID(i), round, vec(float64(i*10+round)))
		}
		b.drain()
	}
	for id, rs := range b.results {
		if len(rs) != 3 {
			t.Fatalf("process %d completed %d rounds, want 3", id, len(rs))
		}
		for i, res := range rs {
			if res.Round != i+1 {
				t.Errorf("process %d result %d is round %d", id, i, res.Round)
			}
		}
	}
}

func TestExchangeLateStarterCompletesImmediately(t *testing.T) {
	// Process 2 receives all round-1 traffic before starting round 1; its
	// exchange must complete at StartRound time.
	const n, f = 4, 1
	b := newBus(t, n, f, 1, ids(0, 1, 2, 3))
	for _, id := range ids(0, 1, 3) {
		b.start(id, 1, vec(float64(id)))
	}
	b.drain() // everyone but 2 has started; 2 participates passively
	late := b.coords[2]
	if _, ok := late.Completed(1); ok {
		t.Fatal("round complete before StartRound")
	}
	msgs, err := late.StartRound(1, vec(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		b.broadcastFrom(2, m)
	}
	b.drain()
	if _, ok := late.Completed(1); !ok {
		t.Fatal("late starter did not complete")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(3, 1, 0, 1); err == nil {
		t.Error("n = 3f: expected error")
	}
	if _, err := NewCoordinator(4, -1, 0, 1); err == nil {
		t.Error("negative f: expected error")
	}
}

func TestStartRoundTwiceFails(t *testing.T) {
	c, err := NewCoordinator(4, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartRound(1, vec(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartRound(1, vec(0)); err == nil {
		t.Error("second StartRound must fail")
	}
}

func TestHandleUnknownKind(t *testing.T) {
	c, err := NewCoordinator(4, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, results := c.Handle(1, Msg{Kind: MsgKind(77)})
	if len(out) != 0 || len(results) != 0 {
		t.Error("unknown kind produced output")
	}
}
