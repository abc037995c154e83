package service

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/wire"
)

// Failure-mode coverage for the pooled transport: peer disconnect
// mid-instance, reconnect after a connection failure, dial retry against a
// late listener, full outboxes on connected and disconnected links, and
// graceful drain with in-flight instances. All of these run under -race
// in CI.

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

// newBenchLink builds a detached peer link for white-box outbox tests: no
// writer goroutine runs, so the outbox never drains.
func newBenchLink(depth int) (*Service, *peerLink) {
	svc := &Service{
		cfg:  Config{OutboxDepth: depth},
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

// TestSlowPeerBlockPolicy: a full outbox blocks the sender while the peer
// is connected (backpressure) after giving it the chance to ring what it
// deferred, resumes when the writer swaps the outbox out, and drops (as
// WriteDrops) once the peer is disconnected — blocking on a crashed peer
// would stall the instance loop forever. A sender already blocked when the
// link fails is released the same way.
func TestSlowPeerBlockPolicy(t *testing.T) {
	svc, p := newBenchLink(4)
	c1, c2 := net.Pipe()
	defer func() { _ = c1.Close(); _ = c2.Close() }()
	connect(p, c1) // connected, but no read/write loops — pure policy test

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

	// The link fails under a blocked sender: it must stop waiting and drop.
	for p.out.depth() < 4 {
		p.enqueue([]byte{0}, nil)
	}
	done = blocked()
	p.onConn(1, linkDrop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue still blocked after the link failed")
	}
	if got := svc.ctr.writeDrops.Load(); got != 1 {
		t.Fatalf("writeDrops = %d after the link failed, want 1", got)
	}

	// Disconnected: further sends on a full outbox drop without waiting.
	p.enqueue([]byte{0xff}, nil)
	if got := svc.ctr.writeDrops.Load(); got != 2 {
		t.Fatalf("writeDrops = %d, want 2", got)
	}
	if got := svc.ctr.outboxStalls.Load(); got != 3 {
		t.Fatalf("outboxStalls = %d, want 3", got)
	}
}

// TestServiceFullOutboxEndToEnd runs a connected mesh to decisions
// through full outboxes: with OutboxDepth 4 and 60 instances proposed at
// once, senders hit the bound and block until their writers drain. Every
// instance must still decide inside its inputs' hull, some process must
// record a stall, and no frame may be dropped — a connected peer's full
// outbox blocks, it never loses a frame.
func TestServiceFullOutboxEndToEnd(t *testing.T) {
	const n, instances = 5, 60
	svcs := startMesh(t, n, func(_ int, cfg *Config) { cfg.OutboxDepth = 4 })
	rng := rand.New(rand.NewSource(31))
	inputs := make([][]geometry.Vector, instances)
	chans := make([][]<-chan Result, instances)
	for k := range chans {
		inputs[k] = randomInputs(rng, n, 2)
		chans[k] = proposeAll(t, svcs, uint64(k+1), inputs[k])
	}
	for k, chs := range chans {
		for i, ch := range chs {
			res := collect(t, ch, 30*time.Second)
			if res.Err != nil {
				t.Fatalf("instance %d process %d: %v", k+1, i, res.Err)
			}
			if in, err := hull.Contains(inputs[k], res.Decision, 1e-9); err != nil || !in {
				t.Errorf("instance %d process %d: decision %v outside input hull (err %v)", k+1, i, res.Decision, err)
			}
		}
	}
	var stalls int64
	for i, s := range svcs {
		st := s.Stats()
		stalls += st.OutboxStalls
		if st.WriteDrops != 0 {
			t.Errorf("process %d: %d write drops on a connected mesh", i, st.WriteDrops)
		}
	}
	t.Logf("%d outbox stalls across the mesh", stalls)
	if stalls == 0 {
		t.Error("no process stalled on a full outbox: the test never reached the bound")
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
	p := svcs[1].peerAt(0)
	waitUntil(t, 10*time.Second, p.saidGoodbye, "peer 1 sees process 0's goodbye")
	if err := svcs[0].Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
	waitUntil(t, 10*time.Second, func() bool { return p.linkState() == linkGone }, "peer 1's link to the drained process ends")
	time.Sleep(100 * time.Millisecond)
	if st := p.linkState(); st != linkGone {
		t.Errorf("peer 1's link to a drained, closed process is %v, want gone (nothing redials it)", st)
	}
	if got := svcs[1].Stats().Reconnects; got != 0 {
		t.Errorf("peer 1 reconnected %d times to a drained process", got)
	}
}

// failOnceListener is a TCP listener whose first Accept fails the way a
// process out of file descriptors does.
type failOnceListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *failOnceListener) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// failOnceTransport is the plain TCP transport over failOnceListeners.
type failOnceTransport struct{ netTransport }

func (failOnceTransport) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &failOnceListener{Listener: ln}, nil
}

// TestEstablishAfterAcceptError: every process's listener fails its first
// Accept. The accept loop notes the error and keeps accepting, so the mesh
// still establishes and decides.
func TestEstablishAfterAcceptError(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.Transport = failOnceTransport{}
	})
	rng := rand.New(rand.NewSource(83))
	for i, ch := range proposeAll(t, svcs, 1, randomInputs(rng, n, 2)) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
	}
	for i, s := range svcs {
		if err := s.Err(); !errors.Is(err, syscall.EMFILE) {
			t.Errorf("service %d: Err() = %v, want the failed Accept", i, err)
		}
	}
}

// TestHandshakeRefusesOversizedPrefix: a length prefix over
// wire.MaxHandshakeFrame from a dialer that has not authenticated is
// refused before its body is allocated, and the acceptor closes the conn
// at once instead of holding it until the handshake deadline.
func TestHandshakeRefusesOversizedPrefix(t *testing.T) {
	prefix := []byte{1, 0, 0, 0} // 16 MiB, wire.MaxFrameSize
	client, server := net.Pipe()
	go func() {
		_, _ = client.Write(prefix)
		_ = client.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readHandshakeFrame(server, wire.FrameHello)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Errorf("readHandshakeFrame: %v, want %v", err, wire.ErrFrameTooLarge)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing a 16 MiB prefix allocated %d bytes", grew)
	}

	const n = 5
	s, err := New(Config{Node: testNodeConfig(n), ID: 0, Addrs: loopbackTemplate(n), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(prefix); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("acceptor kept the oversized handshake open: read %v, want EOF", err)
	}
}
