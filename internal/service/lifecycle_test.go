package service

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
)

// Lifecycle edge coverage: the transitions the happy-path and failure
// suites skip over — Propose arriving while a drain is still waiting on
// in-flight instances, instance-id reuse straddling a connection failure,
// and a linger window closing just before a lagging peer's witness report
// arrives. All of these run under -race in CI.

// TestServiceProposeWhileDrainWaits: Drain refuses new proposals from the
// moment it is called, not from the moment it returns. An instance only
// one process proposed can never decide, so Drain must sit waiting on it;
// a Propose issued in that window gets ErrDraining, and Drain still
// completes once the straggler times out.
func TestServiceProposeWhileDrainWaits(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.InstanceTimeout = 500 * time.Millisecond
	})
	rng := rand.New(rand.NewSource(43))
	inputs := randomInputs(rng, n, 2)

	// Only process 0 proposes: the instance is undecidable and holds the
	// drain open until its timeout.
	ch, err := svcs[0].Propose(1, inputs[0])
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	drainErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { drainErr <- svcs[0].Drain(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for !closed(svcs[0].isDrain) {
		if time.Now().After(deadline) {
			t.Fatal("Drain never flipped the draining latch")
		}
		time.Sleep(time.Millisecond)
	}
	if got := svcs[0].Stats().ActiveInstances; got != 1 {
		t.Fatalf("ActiveInstances = %d while Drain waits, want 1", got)
	}
	if _, err := svcs[0].Propose(2, inputs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("Propose while Drain waits: %v, want ErrDraining", err)
	}

	if res := collect(t, ch, 10*time.Second); !errors.Is(res.Err, ErrInstanceTimeout) {
		t.Fatalf("straggler result: %v, want ErrInstanceTimeout", res.Err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestServiceDuplicateIDAcrossReconnect: the duplicate-instance guard is
// instance-loop state, not connection state — an id that finished before a
// connection failure is still refused after the link re-establishes, and
// fresh ids still work.
func TestServiceDuplicateIDAcrossReconnect(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(47))
	inputs := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 5, inputs) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("first run, process %d: %v", i, res.Err)
		}
	}

	// Yank the established 1→0 socket (higher id dials lower, so svcs[1]
	// owns the redial) and wait for the link to come back.
	p := svcs[1].peerAt(0)
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn == nil {
		t.Fatal("link 1→0 has no connection after Establish")
	}
	_ = conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for svcs[1].Stats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("link 1→0 never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ch, err := svcs[1].Propose(5, inputs[1])
	if err != nil {
		t.Fatalf("re-Propose after reconnect: %v", err)
	}
	if res := collect(t, ch, 10*time.Second); !errors.Is(res.Err, ErrDuplicateInstance) {
		t.Fatalf("re-Propose after reconnect: %v, want ErrDuplicateInstance", res.Err)
	}
	for i, ch := range proposeAll(t, svcs, 6, inputs) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("fresh id after reconnect, process %d: %v", i, res.Err)
		}
	}
}

// TestServiceLateReportAfterLingerExpiry: one process tombstones a decided
// instance on a tiny linger window, then a lagging peer's witness report
// for that instance arrives. The tombstone must swallow the frame — no
// background error, no resurrected state — and the mesh must keep
// deciding fresh instances.
func TestServiceLateReportAfterLingerExpiry(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, func(id int, cfg *Config) {
		if id == 0 {
			cfg.LingerTimeout = 50 * time.Millisecond
		}
	})
	rng := rand.New(rand.NewSource(53))
	inputs := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 3, inputs) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("instance 3, process %d: %v", i, res.Err)
		}
	}

	// Wait for process 0's expire tick to tombstone the lingering instance.
	deadline := time.Now().Add(10 * time.Second)
	for svcs[0].Stats().Lingering != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("instance never left the linger window: %+v", svcs[0].Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Inject the late report: a peer that (from process 0's view) is still
	// catching up on instance 3. The frame takes the real pooled-connection
	// path into process 0's instance loop, where the tombstone must drop it.
	svcs[1].peerAt(0).send(wire.AppendConsensus(nil, 3, &wire.ConsensusMsg{
		Kind: wire.ConsensusReport, Origin: 1, Round: 2,
	}))

	time.Sleep(200 * time.Millisecond)
	if err := svcs[0].Err(); err != nil {
		t.Fatalf("late report raised a background error: %v", err)
	}
	for i, ch := range proposeAll(t, svcs, 4, inputs) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("instance 4 after late report, process %d: %v", i, res.Err)
		}
	}
	if got := svcs[0].Stats().ReadErrors; got != 0 {
		t.Errorf("ReadErrors = %d after late report, want 0", got)
	}
}

// TestServiceCountsOutOfRangeRounds: a peer that names rounds past the
// termination count — a report and an RBC message, on the real
// pooled-connection path, to an instance that is open — is counted in
// Stats.OutOfRangeRounds and otherwise ignored: no read error, no torn
// connection, no background error, and the instance decides.
func TestServiceCountsOutOfRangeRounds(t *testing.T) {
	const n, id, spam = 5, 8, 500
	svcs := startMesh(t, n, nil)
	inputs := randomInputs(rand.New(rand.NewSource(59)), n, 2)
	// Only process 0 proposes for now, so its instance is open and waiting.
	ch0, err := svcs[0].Propose(id, inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	rounds := uint32(testNodeConfig(n).MaxRounds)
	link := svcs[1].peerAt(0)
	for k := uint32(0); k < spam; k++ {
		link.send(wire.AppendConsensus(nil, id, &wire.ConsensusMsg{Kind: wire.ConsensusReport, Origin: 1, Round: rounds + 1 + k}))
		link.send(wire.AppendConsensus(nil, id, &wire.ConsensusMsg{
			Kind: wire.ConsensusRBC, Phase: 2, Origin: 1, Round: 1<<32 - 1 - k, Value: []float64{0.5, 0.5}}))
	}
	deadline := time.Now().Add(10 * time.Second)
	for svcs[0].Stats().OutOfRangeRounds != 2*spam {
		if time.Now().After(deadline) {
			t.Fatalf("OutOfRangeRounds = %d, want %d", svcs[0].Stats().OutOfRangeRounds, 2*spam)
		}
		time.Sleep(5 * time.Millisecond)
	}
	chans := []<-chan Result{ch0}
	for i := 1; i < n; i++ {
		ch, err := svcs[i].Propose(id, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
	}
	st := svcs[0].Stats()
	if st.ReadErrors != 0 || st.Reconnects != 0 || svcs[0].Err() != nil {
		t.Errorf("out-of-range rounds disturbed the link: %d read errors, %d reconnects, err %v", st.ReadErrors, st.Reconnects, svcs[0].Err())
	}
}
