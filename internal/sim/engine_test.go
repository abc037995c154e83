package sim

import (
	"errors"
	"testing"
	"time"
)

// echoNode replies "pong" to every "ping" and halts after receiving done.
type echoNode struct {
	pings int
	pongs int
}

func (e *echoNode) Init(api API) {}

func (e *echoNode) OnMessage(api API, from ProcID, msg Message) {
	switch msg {
	case "ping":
		e.pings++
		api.Send(from, "pong")
	case "pong":
		e.pongs++
	case "halt":
		api.Halt()
	}
}

// starterNode pings everyone at init, then halts after collecting replies.
type starterNode struct {
	echoNode
	n, want int
}

func (s *starterNode) Init(api API) {
	for i := 0; i < s.n; i++ {
		if ProcID(i) != api.ID() {
			api.Send(ProcID(i), "ping")
		}
	}
}

func (s *starterNode) OnMessage(api API, from ProcID, msg Message) {
	s.echoNode.OnMessage(api, from, msg)
	if s.pongs >= s.want {
		api.Halt()
	}
}

func TestEnginePingPong(t *testing.T) {
	n := 4
	nodes := make([]Node, n)
	starter := &starterNode{n: n, want: n - 1}
	nodes[0] = starter
	for i := 1; i < n; i++ {
		nodes[i] = &echoNode{}
	}
	eng, err := NewEngine(Config{N: n, Seed: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if starter.pongs != n-1 {
		t.Errorf("pongs = %d, want %d", starter.pongs, n-1)
	}
	if stats.Sent != int64(2*(n-1)) {
		t.Errorf("sent = %d, want %d", stats.Sent, 2*(n-1))
	}
	if stats.Halted != 1 {
		t.Errorf("halted = %d, want 1", stats.Halted)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{N: 2}, []Node{&echoNode{}}); err == nil {
		t.Error("N mismatch: expected error")
	}
	if _, err := NewEngine(Config{N: 0}, nil); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := NewEngine(Config{N: 1}, []Node{nil}); err == nil {
		t.Error("nil node: expected error")
	}
}

// orderNode records the order of received payloads.
type orderNode struct {
	got []int
}

func (o *orderNode) Init(API) {}

func (o *orderNode) OnMessage(_ API, _ ProcID, msg Message) {
	o.got = append(o.got, msg.(int))
}

// burstNode sends k sequenced messages to node 1 at init.
type burstNode struct {
	k int
}

func (b *burstNode) Init(api API) {
	for i := 0; i < b.k; i++ {
		api.Send(1, i)
	}
}

func (b *burstNode) OnMessage(API, ProcID, Message) {}

func TestEngineFIFOUnderRandomDelays(t *testing.T) {
	// Even with highly variable delays, per-link FIFO must hold.
	const k = 200
	recv := &orderNode{}
	eng, err := NewEngine(Config{
		N:     2,
		Seed:  99,
		Delay: UniformDelay{Min: 0, Max: 50 * time.Millisecond},
	}, []Node{&burstNode{k: k}, recv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recv.got) != k {
		t.Fatalf("received %d, want %d", len(recv.got), k)
	}
	for i, v := range recv.got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

// TestEngineDeterminism: one seed replays one execution of two senders
// interleaving bursts into one receiver.
func TestEngineDeterminism(t *testing.T) {
	run := func() []int {
		recv := &orderNode{}
		nodes := []Node{&burstNode{k: 50}, recv, &burstNode{k: 0}}
		// Third node also bursts into node 1 to create interleaving.
		nodes[2] = &burst2{}
		eng, err := NewEngine(Config{
			N:     3,
			Seed:  1234,
			Delay: ExponentialDelay{Mean: 5 * time.Millisecond},
		}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return recv.got
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}

}

type burst2 struct{}

func (burst2) Init(api API) {
	for i := 0; i < 50; i++ {
		api.Send(1, 1000+i)
	}
}

func (burst2) OnMessage(API, ProcID, Message) {}

func TestEngineSeedChangesSchedule(t *testing.T) {
	run := func(seed int64) []int {
		recv := &orderNode{}
		eng, err := NewEngine(Config{
			N:     3,
			Seed:  seed,
			Delay: UniformDelay{Min: 0, Max: 100 * time.Millisecond},
		}, []Node{&burstNode{k: 30}, recv, &burst2{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return recv.got
	}
	a := run(1)
	b := run(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical interleavings (suspicious)")
	}
}

// selfNode sends itself a message and halts on receipt.
type selfNode struct{ got bool }

func (s *selfNode) Init(api API) { api.Send(api.ID(), "self") }

func (s *selfNode) OnMessage(api API, from ProcID, msg Message) {
	if from != api.ID() {
		return
	}
	s.got = true
	api.Halt()
}

func TestEngineSelfSend(t *testing.T) {
	nd := &selfNode{}
	eng, err := NewEngine(Config{N: 1, Seed: 1}, []Node{nd})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !nd.got {
		t.Error("self-send not delivered")
	}
}

func TestEngineBroadcastIncludesSelf(t *testing.T) {
	recvs := []*orderNode{{}, {}, {}}
	bcast := &broadcaster{}
	nodes := []Node{bcast, recvs[1], recvs[2]}
	eng, err := NewEngine(Config{N: 3, Seed: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 3 {
		t.Errorf("sent = %d, want 3 (broadcast includes self)", stats.Sent)
	}
	if bcast.self != 1 {
		t.Errorf("self deliveries = %d, want 1", bcast.self)
	}
}

type broadcaster struct{ self int }

func (b *broadcaster) Init(api API) { api.Broadcast(42) }

func (b *broadcaster) OnMessage(api API, from ProcID, _ Message) {
	if from == api.ID() {
		b.self++
	}
}

func TestEngineHaltSuppressesDelivery(t *testing.T) {
	// Node 1 halts immediately; burst messages must be suppressed.
	h := &haltOnInit{}
	eng, err := NewEngine(Config{N: 2, Seed: 1}, []Node{&burstNode{k: 10}, h})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if h.deliveries != 0 {
		t.Errorf("halted node received %d messages", h.deliveries)
	}
	if stats.Suppressed != 10 {
		t.Errorf("suppressed = %d, want 10", stats.Suppressed)
	}
}

type haltOnInit struct{ deliveries int }

func (h *haltOnInit) Init(api API) { api.Halt() }

func (h *haltOnInit) OnMessage(API, ProcID, Message) { h.deliveries++ }

// chatterNode replies forever — used to exercise the event cap.
type chatterNode struct{}

func (chatterNode) Init(api API) {
	if api.ID() == 0 {
		api.Send(1, "x")
	}
}

func (chatterNode) OnMessage(api API, from ProcID, _ Message) {
	api.Send(from, "x")
}

// cutoffDelays are the models the NodeWorkers cut-off test runs under. Every
// gossip node broadcasts all its rounds at Init, so each link's lane holds a
// run of events one FIFO nudge apart and the cut-off lands inside a lane;
// the capped exponential adds equal timestamps across lanes.
var cutoffDelays = map[string]DelayModel{
	"constant":           ConstantDelay{D: time.Millisecond},
	"uniform":            UniformDelay{Min: time.Millisecond, Max: 2 * time.Millisecond},
	"exponential-capped": ExponentialDelay{Mean: 2 * time.Millisecond, Cap: 2 * time.Millisecond},
}

// runGossipCutoff runs four never-halting gossip nodes under cfg and
// returns the statistics and Run's error.
func runGossipCutoff(t *testing.T, cfg Config, rounds int) (Stats, error) {
	t.Helper()
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &gossipNode{rounds: rounds, haltAfter: 1 << 30}
	}
	cfg.N = len(nodes)
	eng, err := NewEngine(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}

func TestEngineMaxEvents(t *testing.T) {
	eng, err := NewEngine(Config{N: 2, Seed: 1, MaxEvents: 100}, []Node{chatterNode{}, chatterNode{}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	if !errors.Is(err, ErrMaxEvents) {
		t.Errorf("err = %v, want ErrMaxEvents", err)
	}
}

func TestEngineDropInvalidDestination(t *testing.T) {
	eng, err := NewEngine(Config{N: 1, Seed: 1}, []Node{&badSender{}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 0 {
		t.Errorf("sent = %d, want 0 (invalid destinations dropped)", stats.Sent)
	}
}

type badSender struct{}

func (badSender) Init(api API)                   { api.Send(99, "x"); api.Send(-1, "y") }
func (badSender) OnMessage(API, ProcID, Message) {}

func TestEngineObserver(t *testing.T) {
	var seen []Delivery
	eng, err := NewEngine(Config{
		N: 2, Seed: 1,
		Observer: func(ev Delivery) { seen = append(seen, ev) },
	}, []Node{&burstNode{k: 3}, &orderNode{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Errorf("observer saw %d deliveries, want 3", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].At < seen[i-1].At {
			t.Error("observer deliveries not time-ordered")
		}
	}
}

func TestEngineStarveSenders(t *testing.T) {
	// With node 0's messages starved, node 2's burst arrives first even
	// though node 0 sent earlier.
	recv := &orderNode{}
	eng, err := NewEngine(Config{
		N:    3,
		Seed: 5,
		Delay: StarveSenders{
			Inner: ConstantDelay{D: time.Millisecond},
			Slow:  map[ProcID]bool{0: true},
			Extra: time.Second,
		},
	}, []Node{&burstNode{k: 1}, recv, &burst2{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recv.got) != 51 {
		t.Fatalf("received %d, want 51", len(recv.got))
	}
	if recv.got[0] != 1000 {
		t.Errorf("first delivery = %d, want starved sender's message last", recv.got[0])
	}
	if recv.got[50] != 0 {
		t.Errorf("last delivery = %d, want 0 (the starved message)", recv.got[50])
	}
}

func TestEngineRandPerProcessIsStable(t *testing.T) {
	mk := func() (float64, float64) {
		var v0, v1 float64
		nodes := []Node{
			nodeFunc(func(api API) { v0 = api.Rand().Float64() }),
			nodeFunc(func(api API) { v1 = api.Rand().Float64() }),
		}
		eng, err := NewEngine(Config{N: 2, Seed: 7}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return v0, v1
	}
	a0, a1 := mk()
	b0, b1 := mk()
	if a0 != b0 || a1 != b1 {
		t.Error("per-process RNG not reproducible across runs")
	}
	if a0 == a1 {
		t.Error("distinct processes share an RNG stream")
	}
}

// nodeFunc adapts a function to Node for tiny test nodes.
type nodeFunc func(api API)

func (f nodeFunc) Init(api API)                   { f(api) }
func (f nodeFunc) OnMessage(API, ProcID, Message) {}

// gossipNode exercises every determinism-sensitive engine facility at once:
// it broadcasts rng-perturbed payloads, replies to a subset of senders, and
// halts after a fixed number of deliveries — so executions cover equal
// timestamps, halts with messages still queued, and per-process PRNG
// streams.
type gossipNode struct {
	rounds    int
	delivered int
	haltAfter int
}

func (g *gossipNode) Init(api API) {
	for r := 0; r < g.rounds; r++ {
		api.Broadcast(int(api.Rand().Int63n(1000)) + r)
	}
}

func (g *gossipNode) OnMessage(api API, from ProcID, msg Message) {
	g.delivered++
	if g.delivered == g.haltAfter {
		api.Halt()
		return
	}
	if v := msg.(int); v%3 == 0 && g.delivered < 3*g.haltAfter {
		api.Send(from, v+int(api.Rand().Int63n(7)))
	}
}

// traceOf runs a gossip execution and returns the full delivery trace plus
// statistics.
func traceOf(t *testing.T, n, nodeWorkers int, delay DelayModel) ([]Delivery, Stats) {
	t.Helper()
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &gossipNode{rounds: 3, delivered: 0, haltAfter: 5 + i}
	}
	var trace []Delivery
	eng, err := NewEngine(Config{
		N: n, Seed: 99, Delay: delay, NodeWorkers: nodeWorkers,
		Observer: func(ev Delivery) { trace = append(trace, ev) },
	}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return trace, stats
}

// TestEngineNodeWorkersDeterministic: the deprecated NodeWorkers field is
// ignored, so the delivery trace (time, sender, receiver, sequence number,
// payload) and statistics of an execution are identical for every setting,
// and a second run with the same seed replays the first. The delays cover
// constant, randomized and adversarial (starvation) schedules.
func TestEngineNodeWorkersDeterministic(t *testing.T) {
	delays := map[string]DelayModel{
		"constant":    ConstantDelay{D: time.Millisecond},
		"uniform":     UniformDelay{Min: time.Millisecond, Max: 5 * time.Millisecond},
		"exponential": ExponentialDelay{Mean: 2 * time.Millisecond},
		// A cap at the mean puts e⁻¹ of all draws on one value: equal
		// timestamps across links, which only sequence numbers order, and
		// nodes that halt while messages to them are still queued.
		"exponential-capped": ExponentialDelay{Mean: 2 * time.Millisecond, Cap: 2 * time.Millisecond},
		"starve": StarveSenders{
			Inner: ConstantDelay{D: time.Millisecond},
			Slow:  map[ProcID]bool{0: true},
			Extra: 40 * time.Millisecond,
		},
	}
	for name, delay := range delays {
		t.Run(name, func(t *testing.T) {
			wantTrace, wantStats := traceOf(t, 6, 1, delay)
			if len(wantTrace) == 0 {
				t.Fatal("empty reference trace")
			}
			if name == "exponential-capped" {
				shared := 0
				for i := 1; i < len(wantTrace); i++ {
					if wantTrace[i].At == wantTrace[i-1].At && wantTrace[i].To != wantTrace[i-1].To {
						shared++
					}
				}
				if shared == 0 || wantStats.Suppressed == 0 {
					t.Fatalf("%d multi-destination timestamps, %d suppressed deliveries: case lost its point", shared, wantStats.Suppressed)
				}
			}
			for _, nw := range []int{1, 0, 2, 4, 16} {
				trace, stats := traceOf(t, 6, nw, delay)
				if stats != wantStats {
					t.Fatalf("nodeworkers=%d: stats %+v, want %+v", nw, stats, wantStats)
				}
				if len(trace) != len(wantTrace) {
					t.Fatalf("nodeworkers=%d: %d deliveries, want %d", nw, len(trace), len(wantTrace))
				}
				for i := range trace {
					if trace[i] != wantTrace[i] {
						t.Fatalf("nodeworkers=%d: delivery %d = %+v, want %+v", nw, i, trace[i], wantTrace[i])
					}
				}
			}
		})
	}
}

// TestEngineNodeWorkersMaxEvents: the MaxEvents cap trips after exactly
// MaxEvents handled events, with the same error and statistics for every
// NodeWorkers setting.
func TestEngineNodeWorkersMaxEvents(t *testing.T) {
	for name, delay := range cutoffDelays {
		var want Stats
		for i, nw := range []int{1, 0, 3} {
			stats, err := runGossipCutoff(t, Config{Seed: 3, MaxEvents: 100, NodeWorkers: nw, Delay: delay}, 50)
			if !errors.Is(err, ErrMaxEvents) {
				t.Fatalf("%s nodeworkers=%d: err = %v, want ErrMaxEvents", name, nw, err)
			}
			if got := stats.Delivered + stats.Suppressed; got != 100 {
				t.Fatalf("%s nodeworkers=%d: %d events handled, want exactly MaxEvents = 100", name, nw, got)
			}
			if i == 0 {
				want = stats
			} else if stats != want {
				t.Fatalf("%s nodeworkers=%d: stats %+v, want %+v", name, nw, stats, want)
			}
		}
	}
}
