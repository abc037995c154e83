package service

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Failure-mode coverage for the pooled transport: peer disconnect
// mid-instance, reconnect after a connection failure, dial retry against a
// late listener, the slow-peer shed/block policies, and graceful drain
// with in-flight instances. All of these run under -race in CI.

// TestServicePeerDisconnectMidInstance kills one process while a batch of
// instances is in flight. The survivors are n−f = 4 of 5, which is
// exactly the quorum the §3.2 algorithm needs, so every surviving process
// must still decide every instance; the dead process's results surface as
// decisions (if it finished first) or ErrServiceClosed.
func TestServicePeerDisconnectMidInstance(t *testing.T) {
	const n, instances = 5, 8
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(19))

	chans := make(map[uint64][]<-chan Result, instances)
	for id := uint64(1); id <= instances; id++ {
		chans[id] = proposeAll(t, svcs, id, randomInputs(rng, n, 2))
	}
	if err := svcs[n-1].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for id, chs := range chans {
		for i, ch := range chs {
			res := collect(t, ch, 30*time.Second)
			if i == n-1 {
				if res.Err != nil && !errors.Is(res.Err, ErrServiceClosed) {
					t.Errorf("closed process, instance %d: %v", id, res.Err)
				}
				continue
			}
			if res.Err != nil {
				t.Errorf("survivor %d, instance %d: %v", i, id, res.Err)
			}
		}
	}
	for i := 0; i < n-1; i++ {
		if err := svcs[i].Err(); err != nil {
			t.Errorf("survivor %d background error: %v", i, err)
		}
	}
}

// TestServiceReconnect force-fails one established connection and checks
// the dialing side re-establishes it (Stats.Reconnects) and the mesh then
// carries instances normally.
func TestServiceReconnect(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)

	// svcs[1] dialed svcs[0] (higher id dials lower), so it owns the
	// redial. Yank the socket out from under the link.
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

	rng := rand.New(rand.NewSource(23))
	inputs := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 1, inputs) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("post-reconnect instance, process %d: %v", i, res.Err)
		}
	}
	if got := svcs[1].Stats().Reconnects; got != 1 {
		t.Errorf("one killed connection counted %d reconnects, want 1", got)
	}
	for i, s := range svcs {
		if err := s.Err(); err != nil {
			t.Errorf("service %d background error: %v", i, err)
		}
	}
}

// TestServiceDialRetryLateListener starts four of five processes first:
// their dials to the missing lowest-id process must retry with backoff
// until its listener finally appears, then Establish completes everywhere.
func TestServiceDialRetryLateListener(t *testing.T) {
	const n = 5
	svcs := lateListenerMesh(t, n, 150*time.Millisecond, 0)

	// A link's first connection is not a reconnect, however many dials
	// it took.
	for i := 1; i < n; i++ {
		st := svcs[i].Stats()
		if st.Reconnects != 0 || st.DialFailures == 0 {
			t.Errorf("process %d: %d reconnects, %d dial failures; want 0 and > 0", i, st.Reconnects, st.DialFailures)
		}
	}

	rng := rand.New(rand.NewSource(29))
	for i, ch := range proposeAll(t, svcs, 1, randomInputs(rng, n, 2)) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
	}
}

// TestServiceEstablishOutlastsDialTimeout: Establish is bounded by its ctx
// alone, so a process started several dial timeouts after its peers still
// completes the mesh.
func TestServiceEstablishOutlastsDialTimeout(t *testing.T) {
	lateListenerMesh(t, 5, 300*time.Millisecond, 100*time.Millisecond)
}

// lateListenerMesh establishes an n-process mesh whose lowest-id process
// starts late: processes 1..n−1 establish first, dialing an address
// nobody listens on yet, and process 0 starts after the given delay.
// dialTimeout, when set, is every process's EstablishTimeout.
func lateListenerMesh(t *testing.T, n int, late, dialTimeout time.Duration) []*Service {
	t.Helper()
	// Reserve an address for process 0 without keeping the listener open.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	final := make([]string, n)
	final[0] = rsv.Addr().String()
	_ = rsv.Close()

	svcs := make([]*Service, n)
	start := func(i int, addrs []string) {
		s, err := New(Config{Node: testNodeConfig(n), ID: i, Addrs: addrs, Seed: int64(i + 1), EstablishTimeout: dialTimeout})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		t.Cleanup(func() { _ = s.Close() })
		svcs[i] = s
	}
	for i := 1; i < n; i++ {
		start(i, loopbackTemplate(n))
		final[i] = svcs[i].Addr()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = svcs[i].Establish(ctx, final)
		}()
	}
	time.Sleep(late) // let the dials fail and back off

	start(0, append([]string(nil), final...))
	errs[0] = svcs[0].Establish(ctx, final)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Establish(%d): %v", i, err)
		}
	}
	return svcs
}

// hangingDials is a Transport whose dials, once hang is set, report on
// hung and block until their ctx ends.
type hangingDials struct {
	netTransport
	hang *atomic.Bool
	hung chan struct{}
}

func (h hangingDials) Dial(ctx context.Context, peer int, addr string) (net.Conn, error) {
	if h.hang.Load() {
		select {
		case h.hung <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return h.netTransport.Dial(ctx, peer, addr)
}

// TestServiceCloseCutsHungDial: every dial attempt runs under the
// service's lifetime, so Close returns promptly even while a redial hangs
// in Dial.
func TestServiceCloseCutsHungDial(t *testing.T) {
	const n = 5
	var hang atomic.Bool
	hung := make(chan struct{}, 1)
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.Transport = hangingDials{hang: &hang, hung: hung}
	})
	hang.Store(true)
	svcs[n-1].killConn(0)
	<-hung // the redial to process 0 is blocked in Dial
	start := time.Now()
	if err := svcs[n-1].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a hung dial, want under 1s", took)
	}
}

// newBenchLink builds a detached peer link for white-box policy tests: no
// writer goroutine runs, so the outbox never drains.
func newBenchLink(policy Policy, depth int) (*Service, *peerLink) {
	svc := &Service{
		cfg:  Config{SlowPeer: policy, OutboxDepth: depth},
		stop: make(chan struct{}),
	}
	return svc, newPeerLink(svc, 1, "detached")
}

// fill queues frames through enqueue until the outbox is at its bound.
func fill(t *testing.T, p *peerLink) {
	t.Helper()
	for i := 0; i < p.svc.cfg.OutboxDepth; i++ {
		p.enqueue([]byte{byte(i)}, nil)
	}
	if got := p.out.depth(); got != p.svc.cfg.OutboxDepth {
		t.Fatalf("outbox depth = %d after filling, want %d", got, p.svc.cfg.OutboxDepth)
	}
}

// TestSlowPeerShedPolicy: a full outbox under ShedSlowPeer drops the frame
// immediately and counts it.
func TestSlowPeerShedPolicy(t *testing.T) {
	svc, p := newBenchLink(ShedSlowPeer, 4)
	fill(t, p)
	p.enqueue([]byte{0xff}, nil)
	if got := svc.ctr.sheds.Load(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	if got := p.out.depth(); got != 4 {
		t.Fatalf("outbox depth = %d, want 4", got)
	}
}

// TestSlowPeerBlockPolicy: a full outbox under BlockSlowPeer blocks the
// sender while the peer is connected (backpressure) after giving it the
// chance to ring what it deferred, resumes when the writer swaps the
// outbox out, and sheds (as WriteDrops) once the peer is disconnected —
// blocking on a crashed peer would stall the shard forever. A sender
// already blocked when the link fails is released the same way.
func TestSlowPeerBlockPolicy(t *testing.T) {
	svc, p := newBenchLink(BlockSlowPeer, 4)
	c1, c2 := net.Pipe()
	defer func() { _ = c1.Close(); _ = c2.Close() }()
	p.mu.Lock()
	p.conn = c1 // connected, but no read/write loops — pure policy test
	p.gen = 1
	p.mu.Unlock()

	fill(t, p)
	blocked := func() (done chan struct{}) {
		stalled, done := make(chan struct{}), make(chan struct{})
		go func() {
			p.enqueue([]byte{0xff}, func() { close(stalled) })
			close(done)
		}()
		select {
		case <-stalled:
		case <-time.After(5 * time.Second):
			t.Fatal("enqueue at the bound never reported the stall")
		}
		select {
		case <-done:
			t.Fatal("enqueue returned with a full outbox on a connected peer")
		case <-time.After(50 * time.Millisecond):
		}
		return done
	}
	done := blocked()
	select {
	case <-p.out.bell:
	default:
		t.Fatal("blocked sender did not ring the writer")
	}
	batch, frames := p.out.take(nil) // the writer's swap makes room
	if frames != 4 || len(batch) != 4 {
		t.Fatalf("swap took %d frames / %d bytes, want 4 / 4", frames, len(batch))
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue still blocked after the outbox was swapped out")
	}
	if got := p.out.depth(); got != 1 {
		t.Fatalf("outbox depth = %d after the blocked frame landed, want 1", got)
	}

	// The link fails under a blocked sender: it must stop waiting and shed.
	for p.out.depth() < 4 {
		p.enqueue([]byte{0}, nil)
	}
	done = blocked()
	p.failed(1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue still blocked after the link failed")
	}
	if got := svc.ctr.writeDrops.Load(); got != 1 {
		t.Fatalf("writeDrops = %d after the link failed, want 1", got)
	}

	// Disconnected: further sends on a full outbox shed without waiting.
	p.enqueue([]byte{0xff}, nil)
	if got := svc.ctr.writeDrops.Load(); got != 2 {
		t.Fatalf("writeDrops = %d, want 2", got)
	}
	if got := svc.ctr.sheds.Load(); got != 0 {
		t.Fatalf("sheds = %d, want 0 under block policy", got)
	}
	if got := svc.ctr.outboxStalls.Load(); got != 3 {
		t.Fatalf("outboxStalls = %d, want 3", got)
	}
}

// TestServiceShedPolicyEndToEnd runs a mesh configured with ShedSlowPeer
// under light load: nothing should actually shed, and every instance
// still decides — the policy changes overload behavior, not the happy
// path.
func TestServiceShedPolicyEndToEnd(t *testing.T) {
	const n, instances = 5, 6
	svcs := startMesh(t, n, func(_ int, cfg *Config) { cfg.SlowPeer = ShedSlowPeer })
	rng := rand.New(rand.NewSource(31))
	for id := uint64(1); id <= instances; id++ {
		for i, ch := range proposeAll(t, svcs, id, randomInputs(rng, n, 2)) {
			if res := collect(t, ch, 30*time.Second); res.Err != nil {
				t.Fatalf("instance %d process %d: %v", id, i, res.Err)
			}
		}
	}
}

// TestServiceDrainInFlight drains a process with instances in flight:
// Drain must wait for them, refuse new proposals, and announce the drain
// to peers (goodbye), which stops them from redialing the drained process
// after it closes.
func TestServiceDrainInFlight(t *testing.T) {
	const n, instances = 5, 6
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(37))
	chans := make([][]<-chan Result, 0, instances)
	for id := uint64(1); id <= instances; id++ {
		chans = append(chans, proposeAll(t, svcs, id, randomInputs(rng, n, 2)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svcs[0].Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := svcs[0].Stats().ActiveInstances; got != 0 {
		t.Fatalf("ActiveInstances = %d after Drain", got)
	}
	if _, err := svcs[0].Propose(99, randomInputs(rng, n, 2)[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("Propose after Drain: %v, want ErrDraining", err)
	}
	// Every in-flight instance finished everywhere (Drain waits locally;
	// the peers' copies decide on their own).
	for id, chs := range chans {
		for i, ch := range chs {
			if res := collect(t, ch, 30*time.Second); res.Err != nil {
				t.Errorf("instance %d process %d: %v", id+1, i, res.Err)
			}
		}
	}
	// Goodbye reached the peers: the dialing sides mark the link and will
	// not redial once the drained process goes away.
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := svcs[1].peerAt(0)
		p.mu.Lock()
		bye := p.goodbye
		p.mu.Unlock()
		if bye {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer 1 never saw process 0's goodbye")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := svcs[0].Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	p := svcs[1].peerAt(0)
	p.mu.Lock()
	redialing := p.redialing
	p.mu.Unlock()
	if redialing {
		t.Error("peer 1 is redialing a drained process")
	}
	if got := svcs[1].Stats().Reconnects; got != 0 {
		t.Errorf("peer 1 reconnected %d times to a drained process", got)
	}
}
