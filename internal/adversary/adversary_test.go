package adversary

import (
	"math/rand"
	"testing"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/sim"
)

func TestSilentSync(t *testing.T) {
	s := SilentSync{}
	if out := s.Outbox(1); out != nil {
		t.Errorf("Outbox = %v, want nil", out)
	}
	if !s.Done() {
		t.Error("silent node should always be done")
	}
	s.Deliver(1, nil) // must not panic
}

// scriptedSync is a minimal correct node for crash-wrapping tests.
type scriptedSync struct {
	n         int
	delivered int
}

func (s *scriptedSync) Outbox(r int) map[sim.ProcID]sim.Message {
	out := make(map[sim.ProcID]sim.Message, s.n)
	for to := 0; to < s.n; to++ {
		out[sim.ProcID(to)] = r
	}
	return out
}

func (s *scriptedSync) Deliver(int, map[sim.ProcID]sim.Message) { s.delivered++ }
func (s *scriptedSync) Done() bool                              { return false }

func TestCrashSyncPartialSend(t *testing.T) {
	inner := &scriptedSync{n: 4}
	c := &CrashSync{Wrapped: inner, CrashRound: 2, PartialTo: 2}

	// Round 1: full outbox, delivery forwarded.
	out := c.Outbox(1)
	if len(out) != 4 {
		t.Errorf("round 1 outbox = %d recipients, want 4", len(out))
	}
	c.Deliver(1, nil)
	if inner.delivered != 1 {
		t.Error("pre-crash delivery not forwarded")
	}

	// Round 2: crash mid-broadcast — only ids < 2 served.
	out = c.Outbox(2)
	if len(out) != 2 {
		t.Errorf("crash round outbox = %d recipients, want 2", len(out))
	}
	for to := range out {
		if int(to) >= 2 {
			t.Errorf("recipient %d should not receive from crashed node", to)
		}
	}
	if !c.Done() {
		t.Error("crashed node should be done")
	}

	// Round 3: silence; deliveries no longer forwarded.
	if out := c.Outbox(3); out != nil {
		t.Errorf("post-crash outbox = %v", out)
	}
	c.Deliver(3, nil)
	if inner.delivered != 1 {
		t.Error("post-crash delivery must not be forwarded")
	}
}

func TestFuncSyncLifecycle(t *testing.T) {
	calls := 0
	fsync := &FuncSync{
		Rounds: 2,
		Fn: func(r int) map[sim.ProcID]sim.Message {
			calls++
			return map[sim.ProcID]sim.Message{0: r}
		},
	}
	if fsync.Done() {
		t.Error("done before any round")
	}
	_ = fsync.Outbox(1)
	fsync.Deliver(1, nil)
	if fsync.Done() {
		t.Error("done after round 1 of 2")
	}
	_ = fsync.Outbox(2)
	fsync.Deliver(2, nil)
	if !fsync.Done() {
		t.Error("not done after round 2 of 2")
	}
	if calls != 2 {
		t.Errorf("fn called %d times, want 2", calls)
	}
	empty := &FuncSync{Rounds: 1}
	if out := empty.Outbox(1); out != nil {
		t.Error("nil Fn should produce nil outbox")
	}
}

func TestRandomVectorWithinBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := geometry.Box{Lo: geometry.Vector{-1, 5}, Hi: geometry.Vector{1, 6}}
	for i := 0; i < 200; i++ {
		v := RandomVector(rng, box)
		if !box.Contains(v, 0) {
			t.Fatalf("vector %v escapes box", v)
		}
	}
}

func TestSilentAsyncHalts(t *testing.T) {
	nodes := []sim.Node{SilentAsync{}}
	eng, err := sim.NewEngine(sim.Config{N: 1, Seed: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Halted != 1 || stats.Sent != 0 {
		t.Errorf("stats = %+v, want 1 halted, 0 sent", stats)
	}
}

// countingAsync counts deliveries and echoes one message back.
type countingAsync struct{ got int }

func (c *countingAsync) Init(api sim.API) { api.Send(api.ID(), "kick") }

func (c *countingAsync) OnMessage(api sim.API, _ sim.ProcID, _ sim.Message) {
	c.got++
	if c.got < 10 {
		api.Send(api.ID(), "again")
	}
}

func TestCrashAsyncStopsWrapped(t *testing.T) {
	inner := &countingAsync{}
	crash := &CrashAsync{Wrapped: inner, AfterDeliveries: 3}
	eng, err := sim.NewEngine(sim.Config{N: 1, Seed: 1}, []sim.Node{crash})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inner.got != 3 {
		t.Errorf("wrapped saw %d deliveries, want exactly 3", inner.got)
	}
}

func TestCrashAsyncImmediate(t *testing.T) {
	inner := &countingAsync{}
	crash := &CrashAsync{Wrapped: inner, AfterDeliveries: 0}
	eng, err := sim.NewEngine(sim.Config{N: 1, Seed: 1}, []sim.Node{crash})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inner.got != 0 || stats.Halted != 1 {
		t.Errorf("got=%d halted=%d, want 0 deliveries and 1 halt", inner.got, stats.Halted)
	}
}

func TestNewEIGEquivocatorShapesMessages(t *testing.T) {
	eq := NewEIGEquivocator(4, 2, 3, func(to sim.ProcID) geometry.Vector {
		return geometry.Vector{float64(to)}
	})
	out := eq.Outbox(1)
	if len(out) != 4 {
		t.Fatalf("recipients = %d, want 4", len(out))
	}
	for to, raw := range out {
		msg, ok := raw.(broadcast.EIGRoundMsg)
		if !ok {
			t.Fatalf("message type %T", raw)
		}
		if len(msg.Instances) != 1 || msg.Instances[0].Sender != 3 {
			t.Errorf("round 1 must announce own instance only: %+v", msg)
		}
		v := msg.Instances[0].Relays[0].Value
		if v[0] != float64(to) {
			t.Errorf("recipient %d got %v — equivocation lost", to, v)
		}
	}
	// Round 2 lies about the other instances.
	out2 := eq.Outbox(2)
	msg2 := out2[0].(broadcast.EIGRoundMsg)
	if len(msg2.Instances) != 3 {
		t.Errorf("round 2 lies about %d instances, want 3", len(msg2.Instances))
	}
}

func TestNewStateEquivocatorSplit(t *testing.T) {
	a, b := geometry.Vector{0}, geometry.Vector{1}
	eq := NewStateEquivocator(4, 5, 2, a, b)
	out := eq.Outbox(3)
	for to, raw := range out {
		msg := raw.(core.StateMsg)
		if msg.Round != 3 {
			t.Errorf("round tag %d, want 3", msg.Round)
		}
		want := b
		if int(to) < 2 {
			want = a
		}
		if !msg.Value.Equal(want) {
			t.Errorf("recipient %d got %v, want %v", to, msg.Value, want)
		}
	}
}

func TestNewStateLureConstant(t *testing.T) {
	target := geometry.Vector{7, 7}
	lure := NewStateLure(3, 4, target)
	for r := 1; r <= 2; r++ {
		for to, raw := range lure.Outbox(r) {
			msg := raw.(core.StateMsg)
			if !msg.Value.Equal(target) {
				t.Errorf("round %d recipient %d: %v", r, to, msg.Value)
			}
		}
	}
}

func TestNewAsyncEquivocatorSendsBothValues(t *testing.T) {
	a, b := geometry.Vector{0}, geometry.Vector{1}
	eq := NewAsyncEquivocator(4, 2, 3, 2, a, b)
	rec := &recordingAPI{n: 4}
	eq.Init(rec)
	// 2 rounds × 4 recipients.
	if len(rec.sent) != 8 {
		t.Fatalf("sent %d messages, want 8", len(rec.sent))
	}
	for _, s := range rec.sent {
		m := s.msg.(aad.Msg)
		if m.Kind != aad.KindRBC || m.RBC.Phase != broadcast.RBCInit || m.RBC.Origin != 3 {
			t.Errorf("unexpected message %+v", m)
		}
		want := b
		if int(s.to) < 2 {
			want = a
		}
		if !m.RBC.Value.Equal(want) {
			t.Errorf("recipient %d got %v, want %v", s.to, m.RBC.Value, want)
		}
	}
}

func TestNewAsyncRandomBudgeted(t *testing.T) {
	adv := NewAsyncRandom(4, 3, 5, geometry.UniformBox(2, -1, 1))
	rec := &recordingAPI{n: 4}
	adv.Init(rec)
	first := len(rec.sent)
	if first == 0 {
		t.Fatal("random adversary sent nothing at init")
	}
	// Hammer it with deliveries; the spray budget must cap total output.
	for i := 0; i < 10_000; i++ {
		adv.OnMessage(rec, 0, "noise")
	}
	if len(rec.sent) > 5*3*4*10+first {
		t.Errorf("budget exceeded: %d messages", len(rec.sent))
	}
}

func TestNewAsyncLureParticipates(t *testing.T) {
	target := geometry.Vector{1}
	lure, err := NewAsyncLure(4, 1, 1, 2, 3, target)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingAPI{n: 4}
	lure.Init(rec)
	// Starts RBC for both rounds: 2 broadcasts × 4 recipients.
	inits := 0
	for _, s := range rec.sent {
		m, ok := s.msg.(aad.Msg)
		if ok && m.Kind == aad.KindRBC && m.RBC.Phase == broadcast.RBCInit {
			if !m.RBC.Value.Equal(target) {
				t.Errorf("lure announced %v, want %v", m.RBC.Value, target)
			}
			inits++
		}
	}
	if inits != 8 {
		t.Errorf("inits = %d, want 2 rounds × 4 recipients", inits)
	}
	// It responds to protocol traffic (echoes another origin's INIT).
	before := len(rec.sent)
	lure.OnMessage(rec, 0, aad.Msg{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{
		Phase: broadcast.RBCInit, Origin: 0, Tag: 1, Value: geometry.Vector{0.5},
	}})
	if len(rec.sent) == before {
		t.Error("lure did not participate in dissemination")
	}
	if _, err := NewAsyncLure(3, 1, 1, 1, 0, target); err == nil {
		t.Error("n=3f: expected constructor error")
	}
}

// recordingAPI captures sends for adversary shape tests.
type recordingAPI struct {
	n    int
	sent []sentMsg
}

type sentMsg struct {
	to  sim.ProcID
	msg sim.Message
}

var _ sim.API = (*recordingAPI)(nil)

func (r *recordingAPI) ID() sim.ProcID { return sim.ProcID(r.n - 1) }

func (r *recordingAPI) Send(to sim.ProcID, msg sim.Message) {
	r.sent = append(r.sent, sentMsg{to: to, msg: msg})
}

func (r *recordingAPI) Broadcast(msg sim.Message) {
	for i := 0; i < r.n; i++ {
		r.Send(sim.ProcID(i), msg)
	}
}

func (r *recordingAPI) Halt()            {}
func (r *recordingAPI) Rand() *rand.Rand { return rand.New(rand.NewSource(1)) }
