package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// sinkConn is a net.Conn that records everything written to it.
type sinkConn struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *sinkConn) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(b)
}

func (s *sinkConn) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func (s *sinkConn) Read([]byte) (int, error)         { select {} }
func (s *sinkConn) Close() error                     { return nil }
func (s *sinkConn) LocalAddr() net.Addr              { return nil }
func (s *sinkConn) RemoteAddr() net.Addr             { return nil }
func (s *sinkConn) SetDeadline(time.Time) error      { return nil }
func (s *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// testFrames builds a deterministic sequence of consensus frames.
func testFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = wire.AppendConsensus(nil, uint64(i), &wire.ConsensusMsg{
			Kind: wire.ConsensusRBC, Phase: 1, Origin: uint32(i % 5), Round: uint32(i),
			Value: []float64{float64(i), 0.5},
		})
	}
	return frames
}

// faultyScenario is a scenario exercising every per-frame fault.
func faultyScenario() *Scenario {
	return &Scenario{
		Name: "unit",
		Seed: 42,
		Links: []LinkFault{
			{From: Wildcard, To: Wildcard, Drop: 0.1, Duplicate: 0.1, Reorder: 0.15, Corrupt: 0.1},
		},
	}
}

// runThrough pushes the frames through a fresh injector's link 0→1,
// splitting the stream at the given chunk size (0 = one frame per
// Write), and returns the emitted bytes and counters.
func runThrough(t *testing.T, scn *Scenario, frames [][]byte, chunk int) ([]byte, Counters) {
	t.Helper()
	inj, err := NewInjector(scn, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkConn{}
	conn := inj.Accepted(1, sink)
	if chunk == 0 {
		for _, f := range frames {
			if _, err := conn.Write(f); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		var stream []byte
		for _, f := range frames {
			stream = append(stream, f...)
		}
		for at := 0; at < len(stream); at += chunk {
			end := at + chunk
			if end > len(stream) {
				end = len(stream)
			}
			if _, err := conn.Write(stream[at:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sink.bytes(), inj.Counters()
}

// TestInjectorDeterministicDecisions is the replay anchor: the same
// scenario, seed, and frame sequence produce bit-identical emitted bytes
// and counters — and the decisions depend only on the frame sequence,
// not on how Write calls chunk the stream.
func TestInjectorDeterministicDecisions(t *testing.T) {
	frames := testFrames(400)
	outA, ctrA := runThrough(t, faultyScenario(), frames, 0)
	outB, ctrB := runThrough(t, faultyScenario(), frames, 0)
	if !bytes.Equal(outA, outB) {
		t.Fatalf("same seed, same frames: emitted bytes diverge (%d vs %d bytes)", len(outA), len(outB))
	}
	if ctrA != ctrB {
		t.Fatalf("same seed, same frames: counters diverge:\n%+v\n%+v", ctrA, ctrB)
	}
	if ctrA.Dropped == 0 || ctrA.Duplicated == 0 || ctrA.Reordered == 0 || ctrA.Corrupted == 0 {
		t.Fatalf("scenario did not exercise all faults: %+v", ctrA)
	}
	// Frame granularity: chunking the stream differently changes nothing.
	for _, chunk := range []int{1, 7, 64, 1 << 20} {
		out, ctr := runThrough(t, faultyScenario(), frames, chunk)
		if !bytes.Equal(outA, out) {
			t.Fatalf("chunk=%d: emitted bytes diverge from per-frame writes", chunk)
		}
		if ctrA != ctr {
			t.Fatalf("chunk=%d: counters diverge: %+v vs %+v", chunk, ctrA, ctr)
		}
	}
	// A different seed must (overwhelmingly) decide differently.
	other := faultyScenario()
	other.Seed = 43
	outC, ctrC := runThrough(t, other, frames, 0)
	if bytes.Equal(outA, outC) && ctrA == ctrC {
		t.Fatal("different seeds produced identical fault decisions")
	}
}

// TestInjectorEmissionsParse asserts every emitted frame still parses at
// the stream level (corruption flips bytes past the length prefix only).
func TestInjectorEmissionsParse(t *testing.T) {
	out, ctr := runThrough(t, faultyScenario(), testFrames(300), 0)
	r := bytes.NewReader(out)
	var buf []byte
	frames := 0
	for {
		frame, nb, err := wire.ReadFrameInto(r, buf)
		if err != nil {
			if r.Len() != 0 {
				t.Fatalf("stream desynced after %d frames: %v (%d bytes left)", frames, err, r.Len())
			}
			break
		}
		buf = nb
		_ = frame
		frames++
	}
	want := ctr.Frames - ctr.Dropped + ctr.Duplicated
	if int64(frames) < want-1 || int64(frames) > want {
		// A frame held for reorder with no successor stays held; allow 1.
		t.Fatalf("emitted %d parseable frames, counters imply %d", frames, want)
	}
}

// TestTimelineDeterministic double-expands a scenario with every
// transport action and requires identical timelines.
func TestTimelineDeterministic(t *testing.T) {
	scn := &Scenario{
		Seed: 7,
		Events: []Event{
			{At: Dur(100 * time.Millisecond), Action: ActionLose, From: 0, To: Wildcard, Rate: 0.5},
			{At: Dur(200 * time.Millisecond), Action: ActionPartition, Groups: [][]int{{0}, {1, 2, 3}}},
			{At: Dur(300 * time.Millisecond), Action: ActionLose, From: 0, To: 1},
			{At: Dur(400 * time.Millisecond), Action: ActionHealAll},
			{At: Dur(500 * time.Millisecond), Action: ActionCrash, Proc: 2},
			{At: Dur(600 * time.Millisecond), Action: ActionRestart, Proc: 2},
		},
	}
	if err := scn.Validate(4); err != nil {
		t.Fatal(err)
	}
	for local := 0; local < 4; local++ {
		a, b := scn.Timeline(4, local), scn.Timeline(4, local)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("local %d: timeline not deterministic", local)
		}
		for _, op := range a {
			if op.Peer == local {
				t.Fatalf("local %d: self-link op %+v", local, op)
			}
		}
	}
	// Partition semantics: proc 0 isolated and severed from everyone.
	tl := scn.Timeline(4, 0)
	sawIsolate1, sawSever1 := false, false
	for _, op := range tl {
		if op.At == 200*time.Millisecond && op.Peer == 1 {
			switch op.Op {
			case "isolate":
				sawIsolate1 = true
			case "sever":
				sawSever1 = true
			}
		}
	}
	if !sawIsolate1 || !sawSever1 {
		t.Fatalf("partition did not isolate+sever 0→1: %+v", tl)
	}
	procs := scn.ProcEvents()
	if len(procs) != 2 || procs[0].Action != ActionCrash || procs[1].Action != ActionRestart {
		t.Fatalf("proc events: %+v", procs)
	}
}

// TestIsolateRefusesWritesAndDials covers the manual control surface:
// an isolated link refuses writes and dials with ErrLinkIsolated, leaks
// nothing, and Heal restores both.
func TestIsolateRefusesWritesAndDials(t *testing.T) {
	inj, err := NewInjector(nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkConn{}
	conn := inj.Accepted(1, sink)
	frame := wire.AppendGoodbye(nil)

	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if got := sink.bytes(); !bytes.Equal(got, frame) {
		t.Fatalf("healthy link altered frame: %x vs %x", got, frame)
	}

	inj.Isolate(1)
	if _, err := conn.Write(frame); err != ErrLinkIsolated {
		t.Fatalf("write on isolated link: err=%v, want ErrLinkIsolated", err)
	}
	if got := sink.bytes(); !bytes.Equal(got, frame) {
		t.Fatalf("isolated link leaked bytes: %x", got)
	}
	if ctr := inj.Counters(); ctr.RefusedWrites != 1 {
		t.Fatalf("refusedWrites = %d, want 1", ctr.RefusedWrites)
	}

	ln, err := inj.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	if _, err := inj.Dial(context.Background(), 1, ln.Addr().String()); err != ErrLinkIsolated {
		t.Fatalf("dial on isolated link: err=%v, want ErrLinkIsolated", err)
	}
	if ctr := inj.Counters(); ctr.RefusedDials != 1 {
		t.Fatalf("refusedDials = %d, want 1", ctr.RefusedDials)
	}
	inj.Heal(1)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	c, err := inj.Dial(context.Background(), 1, ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
	inj.Stop()
}

// TestPacingPreservesOrder pushes frames through a delayed link and
// requires the full sequence to arrive unchanged and in order.
func TestPacingPreservesOrder(t *testing.T) {
	scn := &Scenario{
		Seed:  1,
		Links: []LinkFault{{From: Wildcard, To: Wildcard, Delay: Dur(time.Millisecond), Jitter: Dur(2 * time.Millisecond)}},
	}
	inj, err := NewInjector(scn, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkConn{}
	conn := inj.Accepted(1, sink)
	frames := testFrames(50)
	var want []byte
	for _, f := range frames {
		want = append(want, f...)
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.bytes()) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("pump delivered %d/%d bytes before deadline", len(sink.bytes()), len(want))
		}
		time.Sleep(time.Millisecond)
	}
	if got := sink.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("paced link altered or reordered the stream (%d vs %d bytes)", len(got), len(want))
	}
	if ctr := inj.Counters(); ctr.Delayed != int64(len(frames)) {
		t.Fatalf("delayed = %d, want %d", ctr.Delayed, len(frames))
	}
	conn.Close()
	inj.Stop()
}

// TestSeverKillsConns covers partition-grade conn killing.
func TestSeverKillsConns(t *testing.T) {
	inj, err := NewInjector(nil, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer b.Close()
	wrapped := inj.Accepted(1, a)
	// isolated reports whether the link to peer refuses a write.
	frame := wire.AppendGoodbye(nil)
	isolated := func(peer int) bool {
		_, err := inj.Accepted(peer, &sinkConn{}).Write(frame)
		return err == ErrLinkIsolated
	}
	inj.Partition([][]int{{0}, {1, 2}})
	if !isolated(1) || !isolated(2) {
		t.Fatal("partition did not isolate cross-group links")
	}
	if ctr := inj.Counters(); ctr.KilledConns != 1 {
		t.Fatalf("killedConns = %d, want 1", ctr.KilledConns)
	}
	if _, err := wrapped.(*faultConn).Conn.Write([]byte{0}); err == nil {
		// net.Pipe returns io.ErrClosedPipe once closed.
		t.Fatal("severed conn still writable")
	}
	inj.HealAll()
	if isolated(1) || isolated(2) {
		t.Fatal("heal-all left a link isolated")
	}
}

// TestScenarioJSON covers the Dur forms and Load/Validate plumbing.
func TestScenarioJSON(t *testing.T) {
	blob := []byte(`{
		"name": "x", "seed": 9, "duration": "2s",
		"links": [{"from": -1, "to": 0, "delay": "5ms", "jitter": 2.5, "drop": 0.01}],
		"events": [
			{"at": "500ms", "action": "partition", "groups": [[0],[1,2]]},
			{"at": 800, "action": "heal-all"},
			{"at": "1s", "action": "crash", "proc": 1},
			{"at": "1.5s", "action": "restart", "proc": 1}
		]
	}`)
	var s Scenario
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	if s.Links[0].Delay.D() != 5*time.Millisecond {
		t.Fatalf("delay = %v", s.Links[0].Delay.D())
	}
	if s.Links[0].Jitter.D() != 2500*time.Microsecond {
		t.Fatalf("numeric jitter = %v, want 2.5ms", s.Links[0].Jitter.D())
	}
	if s.Events[1].At.D() != 800*time.Millisecond {
		t.Fatalf("numeric at = %v", s.Events[1].At.D())
	}
	if h := s.Horizon(); h != 2*time.Second {
		t.Fatalf("horizon = %v", h)
	}
	if prof := s.Profile(2, 0); prof.Drop != 0.01 {
		t.Fatalf("profile 2→0 = %+v", prof)
	}
	if prof := s.Profile(0, 1); prof.Drop != 0 {
		t.Fatalf("profile 0→1 should be clean: %+v", prof)
	}

	for i, bad := range []Scenario{
		{Links: []LinkFault{{From: 5, To: 0}}},
		{Links: []LinkFault{{Drop: 1.5}}},
		{Events: []Event{{Action: "explode"}}},
		{Events: []Event{{Action: "cut", From: 0, To: 1}}}, // no longer an action
		{Events: []Event{{Action: ActionPartition}}},
		{Events: []Event{{Action: ActionPartition, Groups: [][]int{{0}, {0}}}}},
		{Events: []Event{{Action: ActionCrash, Proc: 7}}},
	} {
		if err := bad.Validate(3); err == nil {
			t.Errorf("bad scenario %d validated", i)
		}
	}
}

// TestScheduledEvents runs a real (fast) scheduled timeline: a partition,
// then a heal-all, each seen as a write refusal starting and ending.
func TestScheduledEvents(t *testing.T) {
	scn := &Scenario{
		Seed: 3,
		Events: []Event{
			{At: Dur(10 * time.Millisecond), Action: ActionPartition, Groups: [][]int{{0}, {1}}},
			{At: Dur(60 * time.Millisecond), Action: ActionHealAll},
		},
	}
	inj, err := NewInjector(scn, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn := inj.Accepted(1, &sinkConn{})
	frame := wire.AppendGoodbye(nil)
	isolated := func() bool {
		_, err := conn.Write(frame)
		return err == ErrLinkIsolated
	}
	inj.Start(time.Now())
	deadline := time.Now().Add(2 * time.Second)
	for !isolated() {
		if time.Now().After(deadline) {
			t.Fatal("partition never applied")
		}
		time.Sleep(time.Millisecond)
	}
	for isolated() {
		if time.Now().After(deadline) {
			t.Fatal("heal-all never applied")
		}
		time.Sleep(time.Millisecond)
	}
	inj.Stop()
}

// TestLossOverrideDeterministic covers the one-directional loss op: a
// lose override drops at the scheduled rate on the overridden direction
// only, clearing restores the profile, and flipping the rate mid-run
// keeps later decisions aligned with an uninterrupted run (fixed draw
// order).
func TestLossOverrideDeterministic(t *testing.T) {
	frames := testFrames(300)
	run := func(flip bool) ([]byte, Counters) {
		inj, err := NewInjector(&Scenario{Seed: 5}, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		sink := &sinkConn{}
		conn := inj.Accepted(1, sink)
		for i, f := range frames {
			if flip && i == 100 {
				inj.SetLoss(1, 1)
			}
			if flip && i == 200 {
				inj.SetLoss(1, 0)
			}
			if _, err := conn.Write(f); err != nil {
				t.Fatal(err)
			}
		}
		return sink.bytes(), inj.Counters()
	}
	clean, cleanCtr := run(false)
	lossy, lossyCtr := run(true)
	if cleanCtr.Dropped != 0 {
		t.Fatalf("clean run dropped %d frames", cleanCtr.Dropped)
	}
	if lossyCtr.Dropped != 100 {
		t.Fatalf("rate-1 window dropped %d frames, want exactly 100", lossyCtr.Dropped)
	}
	// Outside the override window the streams agree: the first 100 and
	// last 100 frames survive identically (draws stayed aligned).
	var head, tail []byte
	for _, f := range frames[:100] {
		head = append(head, f...)
	}
	for _, f := range frames[200:] {
		tail = append(tail, f...)
	}
	if !bytes.Equal(lossy, append(append([]byte(nil), head...), tail...)) {
		t.Fatal("loss override desynced decisions outside its window")
	}
	if !bytes.Equal(clean[:len(head)], head) {
		t.Fatal("clean run altered frames")
	}
	// The other direction is untouched by construction: a fresh link 0→2
	// with the override on 0→1 drops nothing.
	inj, err := NewInjector(&Scenario{Seed: 5}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj.SetLoss(1, 1)
	sink := &sinkConn{}
	conn := inj.Accepted(2, sink)
	if _, err := conn.Write(frames[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.bytes(), frames[0]) {
		t.Fatal("loss on 0→1 leaked onto 0→2")
	}
}

// TestSkewStretchesPacing pins clock-skewed pacing: the same delayed
// link profiled at skew 4 holds its horizon out ~4× as far as at skew 1,
// without changing which frames are emitted.
func TestSkewStretchesPacing(t *testing.T) {
	const delay = 20 * time.Millisecond
	pace := func(factor float64) time.Duration {
		inj, err := NewInjector(&Scenario{
			Seed:  2,
			Links: []LinkFault{{From: Wildcard, To: Wildcard, Delay: Dur(delay), Skew: factor}},
		}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		sink := &sinkConn{}
		conn := inj.Accepted(1, sink)
		start := time.Now()
		if _, err := conn.Write(testFrames(1)[0]); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	nominal, skewed := pace(1), pace(4)
	if nominal < delay || skewed < 4*delay {
		t.Fatalf("pacing under floor: nominal %v (≥ %v), skewed %v (≥ %v)", nominal, delay, skewed, 4*delay)
	}
	if skewed < 2*nominal {
		t.Fatalf("skew 4 paced %v, nominal %v: not stretched", skewed, nominal)
	}
}

// TestBurstQuantizesReleases covers the slow-then-burst profile: frames
// written just after a boundary all release together at the next one,
// arriving as a burst rather than a trickle.
func TestBurstQuantizesReleases(t *testing.T) {
	const every = 60 * time.Millisecond
	inj, err := NewInjector(&Scenario{
		Seed:  8,
		Links: []LinkFault{{From: Wildcard, To: Wildcard, BurstEvery: Dur(every)}},
	}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkConn{}
	conn := inj.Accepted(1, sink)
	frames := testFrames(5)
	var want []byte
	start := time.Now()
	for _, f := range frames {
		want = append(want, f...)
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// Five writes, each quantized to a boundary: the first waits out most
	// of one period; the rest land on already-reached boundaries as the
	// writes trail the sleeps. Total stays within a few periods but is at
	// least one (the first frame's wait) — and nothing is lost.
	if elapsed < every/2 {
		t.Fatalf("burst link released in %v, want ≥ %v of boundary wait", elapsed, every/2)
	}
	if got := sink.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("burst link altered the stream (%d vs %d bytes)", len(got), len(want))
	}
	if ctr := inj.Counters(); ctr.Delayed != int64(len(frames)) {
		t.Fatalf("delayed = %d, want %d", ctr.Delayed, len(frames))
	}
}

// TestAsymmetricEventJSON covers the lose/replace vocabulary and the
// static skew and burst profile end to end: JSON forms, validation
// bounds, timeline expansion with values, and replace surfacing in
// ProcEvents.
func TestAsymmetricEventJSON(t *testing.T) {
	blob := []byte(`{
		"name": "asym", "seed": 4,
		"links": [{"from": 0, "to": 1, "delay": "2ms", "skew": 3, "burst_every": "50ms"}],
		"events": [
			{"at": "100ms", "action": "lose", "from": 0, "to": 1, "rate": 0.4},
			{"at": "200ms", "action": "lose", "from": 0, "to": -1, "rate": 0.25},
			{"at": "300ms", "action": "replace", "proc": 2, "addr": "127.0.0.1:7777"},
			{"at": "400ms", "action": "lose", "from": 0, "to": 1}
		]
	}`)
	var s Scenario
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	if p := s.Profile(0, 1); p.Skew != 3 || p.BurstEvery.D() != 50*time.Millisecond {
		t.Fatalf("profile lost asymmetric fields: %+v", p)
	}
	tl := s.Timeline(3, 0)
	var sawLose, sawWild, sawClear bool
	for _, op := range tl {
		switch {
		case op.Op == ActionLose && op.Peer == 1 && op.Val == 0.4:
			sawLose = true
		case op.Op == ActionLose && op.Peer == 2 && op.Val == 0.25:
			sawWild = true
		case op.Op == ActionLose && op.Val == 0:
			sawClear = true
		}
	}
	if !sawLose || !sawWild || !sawClear {
		t.Fatalf("timeline missing asymmetric ops: %+v", tl)
	}
	procs := s.ProcEvents()
	if len(procs) != 1 || procs[0].Action != ActionReplace || procs[0].Addr != "127.0.0.1:7777" {
		t.Fatalf("replace not in proc events: %+v", procs)
	}
	for i, bad := range []Scenario{
		{Events: []Event{{Action: ActionLose, Rate: 1.5}}},
		{Events: []Event{{Action: ActionLose, Rate: -0.5}}},
		{Events: []Event{{Action: ActionReplace, Proc: 0}}},
		{Events: []Event{{Action: ActionReplace, Proc: 9, Addr: "x"}}},
		{Links: []LinkFault{{Skew: -2}}},
		{Links: []LinkFault{{BurstEvery: Dur(-time.Second)}}},
	} {
		if err := bad.Validate(3); err == nil {
			t.Errorf("bad asymmetric scenario %d validated", i)
		}
	}
}

// TestProfileLastMatchWins pins the profile resolution rule.
func TestProfileLastMatchWins(t *testing.T) {
	s := &Scenario{Links: []LinkFault{
		{From: Wildcard, To: Wildcard, Drop: 0.5},
		{From: 0, To: 1, Drop: 0.1},
	}}
	if p := s.Profile(0, 1); p.Drop != 0.1 {
		t.Fatalf("specific entry should win: %+v", p)
	}
	if p := s.Profile(1, 0); p.Drop != 0.5 {
		t.Fatalf("wildcard should apply elsewhere: %+v", p)
	}
	if p := s.Profile(0, 2); p.From != 0 || p.To != 2 {
		t.Fatalf("profile endpoints not normalized: %+v", p)
	}
}
