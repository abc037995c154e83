package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/sim"
)

// liveShape is the configuration the live benchmarks run: n = 5, f = 1,
// d = 2, four rounds.
func liveShape(n, rounds int) core.AsyncConfig {
	return core.AsyncConfig{
		Params: core.Params{
			N: n, F: 1, D: 2,
			Epsilon: 0.05,
			Bounds:  geometry.UniformBox(2, 0, 1),
		},
		MaxRounds: rounds,
	}
}

func randomInputs(rng *rand.Rand, n int) []geometry.Vector {
	in := make([]geometry.Vector, n)
	for i := range in {
		in[i] = geometry.Vector{rng.Float64(), rng.Float64()}
	}
	return in
}

type meshMsg struct {
	from, to sim.ProcID
	msg      aad.Msg
}

// stepMesh is an in-memory complete graph of AsyncNodes driven through
// Start/Step, one global FIFO: what a shard does with an instance, minus
// the wire.
type stepMesh struct {
	nodes []*core.AsyncNode
	queue []meshMsg
}

func newStepMesh(t testing.TB, cfg core.AsyncConfig, inputs []geometry.Vector) *stepMesh {
	m := &stepMesh{nodes: make([]*core.AsyncNode, cfg.N)}
	for p := range m.nodes {
		nd, err := core.NewAsyncNode(cfg, sim.ProcID(p), inputs[p])
		if err != nil {
			t.Fatalf("NewAsyncNode(%d): %v", p, err)
		}
		m.nodes[p] = nd
	}
	return m
}

// post queues the node's outbox for every process; the messages are copied
// out of the node's scratch by value.
func (m *stepMesh) post(from sim.ProcID) {
	for _, o := range m.nodes[from].Outbox() {
		for to := range m.nodes {
			m.queue = append(m.queue, meshMsg{from: from, to: sim.ProcID(to), msg: o})
		}
	}
}

// run starts every node and steps the queue dry, reporting how many nodes
// returned StepDecided.
func (m *stepMesh) run(t testing.TB) (decided int) {
	for p, nd := range m.nodes {
		if st := nd.Start(); st != core.StepContinue {
			t.Fatalf("node %d: Start returned status %d", p, st)
		}
		m.post(sim.ProcID(p))
	}
	for i := 0; i < len(m.queue); i++ {
		it := &m.queue[i]
		switch st := m.nodes[it.to].Step(it.from, &it.msg); st {
		case core.StepDecided:
			decided++
		case core.StepContinue:
		default:
			t.Fatalf("node %d: Step returned status %d", it.to, st)
		}
		m.post(it.to)
	}
	return decided
}

// TestStepMeshDecides: the typed surface alone runs an instance to a valid
// decision, reports the decision exactly once per node, and keeps serving
// afterwards.
func TestStepMeshDecides(t *testing.T) {
	const n = 5
	cfg := liveShape(n, 4)
	inputs := randomInputs(rand.New(rand.NewSource(3)), n)
	m := newStepMesh(t, cfg, inputs)
	if decided := m.run(t); decided != n {
		t.Fatalf("%d nodes reported StepDecided, want %d", decided, n)
	}
	ex := &core.Execution{D: cfg.D, F: cfg.F}
	for p, nd := range m.nodes {
		dec, err := nd.Decision()
		if err != nil {
			t.Fatalf("node %d: %v", p, err)
		}
		ex.Outcomes = append(ex.Outcomes, core.Outcome{ID: p, Correct: true, Input: inputs[p], Decision: dec})
	}
	if err := ex.VerifyApprox(cfg.Epsilon, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// instanceAllocBudget is the committed ceiling on mallocs for one whole
// n = 5, four-round instance — five nodes built, started and stepped to
// decision and quiescence (1 600 steps). The rewrite this budget came with
// measured ≈ 3 700 before and the figure in docs/TESTING.md after; what is
// left is per node (its tables' headers, history) and per round (one slab
// set per layer, the Γ engine's solve), nothing per message.
const instanceAllocBudget = 700

func TestInstanceAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 5
	cfg := liveShape(n, 4)
	rng := rand.New(rand.NewSource(9))
	var queue []meshMsg // the mesh's own queue is not the instance's cost
	allocs := testing.AllocsPerRun(20, func() {
		m := newStepMesh(t, cfg, randomInputs(rng, n))
		m.queue = queue[:0]
		if decided := m.run(t); decided != n {
			t.Fatalf("%d nodes decided, want %d", decided, n)
		}
		queue = m.queue
	})
	t.Logf("%.0f mallocs per instance (budget %d)", allocs, instanceAllocBudget)
	if allocs > instanceAllocBudget {
		t.Errorf("%.0f mallocs per instance, budget %d", allocs, instanceAllocBudget)
	}
}

// adapterMesh drives nodes through the sim.Node surface (Init/OnMessage)
// with the least sim.API that records what they send.
type adapterMesh struct {
	nodes  []*core.AsyncNode
	queue  []meshMsg
	halted []bool
}

type adapterAPI struct {
	m  *adapterMesh
	id sim.ProcID
}

func (a adapterAPI) ID() sim.ProcID   { return a.id }
func (a adapterAPI) Halt()            { a.m.halted[a.id] = true }
func (a adapterAPI) Rand() *rand.Rand { return nil }
func (a adapterAPI) Send(to sim.ProcID, msg sim.Message) {
	a.m.queue = append(a.m.queue, meshMsg{from: a.id, to: to, msg: msg.(aad.Msg)})
}
func (a adapterAPI) Broadcast(msg sim.Message) {
	for to := range a.m.nodes {
		a.Send(sim.ProcID(to), msg)
	}
}

func newAdapterMesh(t *testing.T, cfg core.AsyncConfig, inputs []geometry.Vector) *adapterMesh {
	m := &adapterMesh{nodes: make([]*core.AsyncNode, cfg.N), halted: make([]bool, cfg.N)}
	for p := range m.nodes {
		nd, err := core.NewAsyncNode(cfg, sim.ProcID(p), inputs[p])
		if err != nil {
			t.Fatalf("NewAsyncNode(%d): %v", p, err)
		}
		m.nodes[p] = nd
	}
	return m
}

// drain delivers the queue dry to every node keep admits (the others'
// messages stay queued, in order).
func (m *adapterMesh) drain(keep func(meshMsg) bool) {
	var held []meshMsg
	for i := 0; i < len(m.queue); i++ {
		it := m.queue[i]
		if !keep(it) {
			held = append(held, it)
			continue
		}
		m.nodes[it.to].OnMessage(adapterAPI{m, it.to}, it.from, it.msg)
	}
	m.queue = held
}

func msgRound(m aad.Msg) int {
	if m.Kind == aad.KindRBC {
		return m.RBC.Tag
	}
	return m.Report.Round
}

// TestLaggingNodeStartsEachRoundOnce: a node that receives whole rounds
// before it starts completes them the moment it starts them — and must then
// start the first unfinished round exactly once. The start loop used to
// re-enter itself through finishRound and start that round a second time,
// failing the node with "round already started" (seen live as a restarted
// process replaying its pending frames).
func TestLaggingNodeStartsEachRoundOnce(t *testing.T) {
	const n, rounds, lag = 5, 4, 4
	cfg := liveShape(n, rounds)
	inputs := randomInputs(rand.New(rand.NewSource(5)), n)
	m := newAdapterMesh(t, cfg, inputs)
	for p := 0; p < lag; p++ {
		m.nodes[p].Init(adapterAPI{m, sim.ProcID(p)})
	}
	// The four fast nodes finish every round among themselves (n−f = 4)
	// while the laggard, not yet started, only hears rounds 1 and 2.
	m.drain(func(it meshMsg) bool { return it.to != lag || msgRound(it.msg) <= 2 })
	for p := 0; p < lag; p++ {
		if !m.nodes[p].Decided() {
			t.Fatalf("fast node %d did not decide without the laggard", p)
		}
	}
	m.nodes[lag].Init(adapterAPI{m, lag}) // rounds 1 and 2 complete on the spot; round 3 starts and waits
	if _, err := m.nodes[lag].Decision(); err == nil || m.halted[lag] {
		t.Fatalf("laggard after Init: err=%v halted=%v, want an undecided, healthy node", err, m.halted[lag])
	}
	m.drain(func(meshMsg) bool { return true })
	if _, err := m.nodes[lag].Decision(); err != nil {
		t.Fatalf("laggard: %v", err)
	}
}

// TestOutOfRangeRoundsLeaveNodeFlat is the node-level face of the one-peer
// memory-DoS regression (see aad.TestOutOfRangeRoundsKeepNoState): 10⁵
// messages naming distinct rounds outside [1, R], from one sender, leave
// the heap flat, and the instance still decides. Written against the
// sim.Node surface so it runs on the implementation before the horizon
// too, where the heap grows by tens of megabytes.
func TestOutOfRangeRoundsLeaveNodeFlat(t *testing.T) {
	const n, rounds, spam = 5, 3, 100000
	cfg := liveShape(n, rounds)
	inputs := randomInputs(rand.New(rand.NewSource(7)), n)
	m := newAdapterMesh(t, cfg, inputs)
	for p := range m.nodes {
		m.nodes[p].Init(adapterAPI{m, sim.ProcID(p)})
	}
	victim, api := m.nodes[0], adapterAPI{m, 0}
	queued := len(m.queue)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := geometry.Vector{0.5, 0.5}
	for k := 0; k < spam; k++ {
		round := rounds + 1 + k
		var msg aad.Msg
		if k%2 == 0 {
			msg = aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{Round: round, Origin: sim.ProcID(k % n)}}
		} else {
			msg = aad.Msg{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{Phase: broadcast.RBCEcho, Origin: 4, Tag: round, Value: v}}
		}
		victim.OnMessage(api, 4, msg)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(m.queue) != queued {
		t.Errorf("out-of-range messages made the node send %d messages", len(m.queue)-queued)
	}
	if !raceflag.Enabled {
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
			t.Errorf("HeapAlloc grew by %d bytes over %d out-of-range messages", grew, spam)
		}
	}
	m.drain(func(meshMsg) bool { return true })
	for p, nd := range m.nodes {
		if _, err := nd.Decision(); err != nil {
			t.Errorf("node %d after the spam: %v", p, err)
		}
	}
}

// TestStepReportsOutOfRange: the typed surface tells the caller that a
// message was dropped for its round, so the service can count it.
func TestStepReportsOutOfRange(t *testing.T) {
	nd, err := core.NewAsyncNode(liveShape(5, 3), 0, geometry.Vector{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	for _, round := range []int{0, -2, 4, 1 << 20} {
		for _, msg := range []aad.Msg{
			{Kind: aad.KindReport, Report: aad.ReportMsg{Round: round, Origin: 1}},
			{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{Phase: broadcast.RBCInit, Origin: 1, Tag: round, Value: geometry.Vector{0, 0}}},
		} {
			if st := nd.Step(1, &msg); st != core.StepOutOfRange {
				t.Errorf("round %d kind %d: status %d, want StepOutOfRange", round, msg.Kind, st)
			}
			if len(nd.Outbox()) != 0 {
				t.Errorf("round %d: a dropped message left %d messages in the outbox", round, len(nd.Outbox()))
			}
		}
	}
	in := aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{Round: 3, Origin: 1}}
	if st := nd.Step(1, &in); st != core.StepContinue {
		t.Errorf("round R itself: status %d, want StepContinue", st)
	}
}
