package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/wire"
)

// detachedShard builds process id's instance loop of an n-process mesh
// whose links (the service's peers) are all detached (no conns, no
// goroutines): what the loop and its instances queue stays in the outboxes
// for the test to inspect.
func detachedShard(id, n int, cfg Config) *shard {
	cfg.ID = id
	if cfg.OutboxDepth == 0 {
		cfg.OutboxDepth = 64
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	svc := &Service{cfg: cfg, n: n, stop: make(chan struct{}), peers: make([]*peerLink, n)}
	for peer := range svc.peers {
		if peer != id {
			svc.peers[peer] = newPeerLink(svc, peer, "detached")
		}
	}
	svc.loop = newShard(svc)
	return svc.loop
}

// connect installs conn on a detached link without starting a reader.
func connect(p *peerLink, conn net.Conn) {
	p.mu.Lock()
	p.to(linkInstall, conn)
	p.mu.Unlock()
}

// gatedConn is a link conn whose every Write waits for the test's verdict:
// nil records the bytes as delivered, an error fails the write.
type gatedConn struct {
	net.Conn // nil: the writer only calls Write and Close
	entered  chan []byte
	verdict  chan error

	mu  sync.Mutex
	got []byte
}

func newGatedConn() *gatedConn {
	return &gatedConn{entered: make(chan []byte), verdict: make(chan error)}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.entered <- append([]byte(nil), b...)
	if err := <-c.verdict; err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.got = append(c.got, b...)
	c.mu.Unlock()
	return len(b), nil
}

func (c *gatedConn) Close() error { return nil }

// pass waits for the writer's next Write on c, checks it carries exactly
// want, and answers it with verdict.
func (c *gatedConn) pass(t *testing.T, want []byte, verdict error) {
	t.Helper()
	select {
	case b := <-c.entered:
		if !bytes.Equal(b, want) {
			t.Fatalf("Write carried %x, want %x", b, want)
		}
		c.verdict <- verdict
	case <-time.After(5 * time.Second):
		t.Fatalf("writer never wrote %x", want)
	}
}

func report(round int) []byte {
	return wire.AppendConsensus(nil, 9, &wire.ConsensusMsg{Kind: wire.ConsensusReport, Origin: 2, Round: uint32(round)})
}

func reports(from, to int) []byte {
	var b []byte
	for r := from; r <= to; r++ {
		b = append(b, report(r)...)
	}
	return b
}

// TestLinkFIFOAcrossSwapsAndFailedWrite: frames queued while a Write is in
// flight ride the next swap in order; a batch whose Write fails is retained
// and resent first on the next connection, the frames queued since follow
// it, and nothing is reordered or lost while the link is reconnected.
func TestLinkFIFOAcrossSwapsAndFailedWrite(t *testing.T) {
	svc, p := newBenchLink(64)
	done := make(chan struct{})
	go func() { p.writeLoop(); close(done) }()
	defer func() {
		close(svc.stop)
		p.fire(linkClose)
		<-done
	}()

	c1 := newGatedConn()
	connect(p, c1)
	p.send(report(0))
	c1.pass(t, reports(0, 0), nil)

	// Frames 1–3 are swapped out as one batch; 4–6 queue behind the
	// in-flight Write, which then fails.
	for r := 1; r <= 3; r++ {
		p.enqueue(report(r), nil)
	}
	p.out.ring()
	select {
	case b := <-c1.entered:
		if !bytes.Equal(b, reports(1, 3)) {
			t.Fatalf("batch = %x, want frames 1–3", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never swapped frames 1–3 out")
	}
	for r := 4; r <= 6; r++ {
		p.send(report(r))
	}
	c1.verdict <- errors.New("link severed")
	waitUntil(t, 5*time.Second, func() bool { return !p.connected() }, "failed write tears the conn down")
	if got := svc.ctr.writeRetries.Load(); got != 3 {
		t.Fatalf("writeRetries = %d, want 3 (the failed batch)", got)
	}
	p.send(report(7)) // queued while disconnected
	if got := p.out.depth(); got != 4 {
		t.Fatalf("outbox depth = %d while disconnected, want 4 (frames 4–7 wait in the outbox)", got)
	}

	c2 := newGatedConn()
	connect(p, c2)
	c2.pass(t, reports(1, 3), nil) // the retained batch goes first
	c2.pass(t, reports(4, 7), nil)
	p.send(report(8))
	c2.pass(t, reports(8, 8), nil)

	waitUntil(t, 5*time.Second, func() bool { return svc.ctr.framesOut.Load() == 9 }, "framesOut counts each frame once")
	c2.mu.Lock()
	got := append([]byte(nil), c2.got...)
	c2.mu.Unlock()
	if !bytes.Equal(got, reports(1, 8)) {
		t.Fatalf("second conn received %x, want frames 1–8 in order", got)
	}
	if got, want := svc.ctr.bytesOut.Load(), int64(len(reports(0, 8))); got != want {
		t.Fatalf("bytesOut = %d, want %d", got, want)
	}
}

// TestBroadcastEncodesOnce: the bytes a broadcast leaves in every peer's
// outbox are wire.AppendConsensus of the same message — what a per-peer
// encode produced before, so old and new processes interoperate — for both
// consensus kinds; the message loops back locally, and each link is owed
// exactly one ring, paid by flush.
func TestBroadcastEncodesOnce(t *testing.T) {
	const self, n, id = 2, 5, 77
	for _, tc := range []struct {
		name string
		msg  aad.Msg
		want wire.ConsensusMsg
	}{
		{"rbc", aad.Msg{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{
			Phase: broadcast.RBCEcho, Origin: 3, Tag: 4, Value: geometry.Vector{0.25, -1.5}}},
			wire.ConsensusMsg{Kind: wire.ConsensusRBC, Phase: uint8(broadcast.RBCEcho), Origin: 3, Round: 4, Value: []float64{0.25, -1.5}}},
		{"report", aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{Round: 6, Origin: 1}},
			wire.ConsensusMsg{Kind: wire.ConsensusReport, Origin: 1, Round: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := detachedShard(self, n, Config{})
			inst := &instance{id: id}
			want := wire.AppendConsensus(nil, id, &tc.want)

			sh.broadcast(inst, &tc.msg)
			sh.broadcast(inst, &tc.msg)
			for peer, p := range sh.svc.peers {
				if p == nil {
					continue
				}
				got, frames := p.out.take(nil)
				if frames != 2 || !bytes.Equal(got, append(append([]byte(nil), want...), want...)) {
					t.Errorf("peer %d outbox: %d frames %x, want 2 × %x", peer, frames, got, want)
				}
				select {
				case <-p.out.bell:
					t.Errorf("peer %d's writer rung before the wake-up ended", peer)
				default:
				}
			}
			if len(sh.local) != 2 || sh.local[0].inst != inst {
				t.Errorf("self-sends queued: %d, want 2", len(sh.local))
			}
			if len(sh.rung) != n-1 {
				t.Fatalf("links owed a ring: %d, want %d (one per peer, not per frame)", len(sh.rung), n-1)
			}
			sh.flush()
			for peer, p := range sh.svc.peers {
				if p == nil {
					continue
				}
				select {
				case <-p.out.bell:
				default:
					t.Errorf("flush did not ring peer %d's writer", peer)
				}
			}
		})
	}
}

// TestInboxBoundBlocksReader: with the instance loop stalled, a reader
// parks at QueueDepth frames — the rest of its burst stays with it, and
// through TCP with the sender — and Close releases both the reader and the
// loop.
func TestInboxBoundBlocksReader(t *testing.T) {
	const depth = 4
	svc, err := New(Config{
		Node: testNodeConfig(5), Addrs: loopbackTemplate(5), ID: 0,
		QueueDepth: depth, OutboxDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = svc.Close()
		}
	}()

	// Peer 1 is connected but never reads: its writer parks in Write with
	// the first frame, the second fills the one-frame outbox, and the full
	// outbox stalls the loop for good on the third (the second stall — the
	// first ends when the writer swaps the first frame out).
	local, remote := net.Pipe()
	defer func() { _ = remote.Close() }()
	svc.peerAt(1).install(local, svc.Epoch())
	for id := uint64(1); id <= 4; id++ {
		if _, err := svc.Propose(id, geometry.Vector{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, func() bool { return svc.Stats().OutboxStalls >= 2 }, "the loop stalls on the unread link")

	// Peer 1's writer is parked in Write on the synchronous pipe, so the
	// reverse direction is free: one burst well past the bound.
	go func() { _, _ = remote.Write(reports(1, 3*depth)) }()
	sh := svc.loop
	waitUntil(t, 5*time.Second, func() bool { return sh.in.depth() == depth }, "inbox fills to QueueDepth")
	time.Sleep(50 * time.Millisecond)
	if got := sh.in.depth(); got != depth {
		t.Fatalf("inbox depth = %d with the reader parked, want %d", got, depth)
	}
	if got := svc.Stats().FramesIn; got != 3*depth {
		t.Fatalf("FramesIn = %d, want %d (the whole burst was read off the conn)", got, 3*depth)
	}

	done := make(chan error, 1)
	go func() { done <- svc.Close() }()
	select {
	case err := <-done:
		closed = true
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release the parked reader and the stalled loop")
	}
}

// TestNonShardSendersRingWriter: on an idle mesh — no instance, so no loop
// wake-up ever flushes anything — the Goodbye Drain queues from outside
// the loop still reaches every other side: send rings the writer at once.
func TestNonShardSendersRingWriter(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svcs[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		for _, s := range svcs[1:] {
			if !s.peerAt(0).saidGoodbye() {
				return false
			}
		}
		return true
	}, "every peer sees the drained process's goodbye")
}

// TestStatsQueueDepthCountsFrames: frames toward a down peer wait in its
// outbox (the writer swaps only once connected), and Stats().QueueDepth
// reports them, in frames, while live links drain to zero.
func TestStatsQueueDepthCountsFrames(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	_ = svcs[n-1].Close()
	live := svcs[:n-1]
	for _, s := range live {
		s := s
		waitUntil(t, 10*time.Second, func() bool { return !s.peerAt(n - 1).connected() }, "survivors notice the closed peer")
	}
	rng := rand.New(rand.NewSource(61))
	for i, ch := range proposeAll(t, live, 1, randomInputs(rng, n, 2)[:n-1]) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
	}
	for i, s := range live {
		s := s
		waitUntil(t, 10*time.Second, func() bool {
			q := s.Stats().QueueDepth
			return q > 0 && q == s.peerAt(n-1).out.depth()
		}, "QueueDepth settles on the down peer's backlog")
		st := s.Stats()
		if st.QueueDepth > s.cfg.OutboxDepth {
			t.Errorf("process %d: QueueDepth %d over OutboxDepth %d", i, st.QueueDepth, s.cfg.OutboxDepth)
		}
		// Every message went to the three live peers too, so a backlog
		// counted in frames is about FramesOut/3; in bytes it would be
		// forty times that.
		if int64(st.QueueDepth) > st.FramesOut/2 {
			t.Errorf("process %d: QueueDepth %d is not in frames (FramesOut %d)", i, st.QueueDepth, st.FramesOut)
		}
	}
}

// TestMailboxBurstOverBound: a burst larger than the bound goes through in
// bound-sized pieces, in order, the producer ringing for each piece the
// consumer has not been rung for, and returns once every frame is in.
func TestMailboxBurstOverBound(t *testing.T) {
	const limit, total = 4, 10
	m := newMailbox[int](limit)
	burst := make([]int, total)
	for i := range burst {
		burst[i] = i
	}
	done := make(chan int, 1)
	go func() {
		n, ring := m.put(burst, total, func() bool { return true })
		if ring {
			m.ring()
		}
		done <- n
	}()
	var got, spare []int
	for len(got) < total {
		select {
		case <-m.bell:
		case <-time.After(5 * time.Second):
			t.Fatalf("consumer never rung with %d of %d frames delivered", len(got), total)
		}
		batch, frames := m.take(spare)
		if frames != len(batch) || frames > limit {
			t.Fatalf("take returned %d frames in %d items, bound %d", frames, len(batch), limit)
		}
		got = append(got, batch...)
		spare = batch
	}
	if n := <-done; n != total {
		t.Fatalf("put appended %d frames, want %d", n, total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("frames out of order: %v", got)
		}
	}
}
