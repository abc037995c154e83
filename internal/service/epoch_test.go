package service

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, within time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", within, what)
}

// reconfigureAll moves every listed process to membership m, as the
// operator does: no process learns a membership from its peers.
func reconfigureAll(t *testing.T, svcs []*Service, m Membership) {
	t.Helper()
	for i, s := range svcs {
		if err := s.Reconfigure(m); err != nil {
			t.Fatalf("Reconfigure(%d) to epoch %d: %v", i, m.Epoch, err)
		}
	}
}

// TestServiceProposeRacesReconfigure: proposals issued concurrently with
// the Reconfigure of every process decide across the flip; afterwards
// every process reports the new epoch and fresh proposals decide.
func TestServiceProposeRacesReconfigure(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(21))
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}

	inputs := randomInputs(rng, n, 2)
	chans := make([]<-chan Result, n)
	start := make(chan struct{})
	errs := make(chan error, n)
	for i, s := range svcs {
		i, s := i, s
		go func() {
			<-start
			ch, err := s.Propose(1, inputs[i])
			chans[i] = ch
			errs <- err
		}()
	}
	close(start)
	// Flip the membership mid-race. Addresses are unchanged — every link
	// keeps its connection — so this is a pure epoch bump.
	reconfigureAll(t, svcs, Membership{Epoch: 1, Addrs: addrs})
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("racing Propose: %v", err)
		}
	}
	for i := range svcs {
		r := collect(t, chans[i], 10*time.Second)
		if r.Err != nil {
			t.Fatalf("process %d: instance failed across the flip: %v", i, r.Err)
		}
	}

	for i, s := range svcs {
		if got := s.Epoch(); got != 1 {
			t.Fatalf("process %d at epoch %d after Reconfigure, want 1", i, got)
		}
	}
	chans2 := proposeAll(t, svcs, 2, randomInputs(rng, n, 2))
	for i := range svcs {
		r := collect(t, chans2[i], 10*time.Second)
		if r.Err != nil {
			t.Fatalf("process %d: post-flip instance failed: %v", i, r.Err)
		}
	}
}

// TestServiceDuplicateInstanceAcrossEpochs: instance ids are global across
// the membership clock — reusing an id after a Reconfigure is refused,
// because peers route frames by id alone.
func TestServiceDuplicateInstanceAcrossEpochs(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(23))
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}

	chans := proposeAll(t, svcs, 7, randomInputs(rng, n, 2))
	for i := range svcs {
		if r := collect(t, chans[i], 10*time.Second); r.Err != nil {
			t.Fatalf("process %d: %v", i, r.Err)
		}
	}
	reconfigureAll(t, svcs, Membership{Epoch: 1, Addrs: addrs})
	ch, err := svcs[0].Propose(7, randomInputs(rng, n, 2)[0])
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	r := collect(t, ch, 5*time.Second)
	if !errors.Is(r.Err, ErrDuplicateInstance) {
		t.Fatalf("reused id across epochs: err = %v, want ErrDuplicateInstance", r.Err)
	}
	if got := svcs[0].Epoch(); got != 1 {
		t.Fatalf("epoch %d after Reconfigure, want 1", got)
	}
}

// TestServiceStaleEpochHandshakeRejected: an inbound handshake must name
// the acceptor's current epoch; any other is refused and counted — both a
// never-seen future epoch and the pre-reconfigure epoch.
func TestServiceStaleEpochHandshakeRejected(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}

	dialHello := func(epoch uint64) {
		t.Helper()
		conn, err := net.Dial("tcp", svcs[0].Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write(wire.AppendHello(nil, 4, epoch)); err != nil {
			t.Fatalf("write hello: %v", err)
		}
		// The acceptor must drop the connection without installing it.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("stale-epoch connection answered instead of closing")
		}
	}

	dialHello(99) // never adopted
	waitUntil(t, 5*time.Second, func() bool {
		return svcs[0].Stats().StaleEpochRejects >= 1
	}, "future-epoch hello counted")

	// Move to epoch 1 (unchanged addresses): a peer still handshaking
	// under epoch 0 is now stale.
	reconfigureAll(t, svcs, Membership{Epoch: 1, Addrs: addrs})
	if got := svcs[0].Epoch(); got != 1 {
		t.Fatalf("epoch %d after Reconfigure, want 1", got)
	}
	dialHello(0)
	waitUntil(t, 5*time.Second, func() bool {
		return svcs[0].Stats().StaleEpochRejects >= 2
	}, "superseded-epoch hello counted")
}

// closedPort returns a loopback address nothing listens on.
func closedPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestReconfigureKeepsOneLinkPerPeer: a Reconfigure re-addresses each
// peer's one link in place, so moving a slot again and again starts no
// goroutine, however many decided instances linger across the moves.
// Process 4 is closed and never proposes, so every instance decided among
// 0–3 lingers for the whole one-minute window. Five moves each send slot 4
// to a fresh closed port, and the survivors decide a new instance after
// every move.
func TestReconfigureKeepsOneLinkPerPeer(t *testing.T) {
	const n, moves = 5, 5
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.LingerTimeout = time.Minute
	})
	rng := rand.New(rand.NewSource(41))
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	survivors := svcs[:n-1]
	_ = svcs[n-1].Close()
	waitUntil(t, 5*time.Second, func() bool {
		for _, s := range survivors {
			if s.peerAt(n - 1).connected() {
				return false
			}
		}
		return true
	}, "survivors notice the closed process")
	decide := func(id uint64) {
		t.Helper()
		for i, ch := range proposeAll(t, survivors, id, randomInputs(rng, n, 2)) {
			if r := collect(t, ch, 10*time.Second); r.Err != nil {
				t.Fatalf("process %d: instance %d: %v", i, id, r.Err)
			}
		}
	}
	decide(1)

	base := runtime.NumGoroutine()
	for k := 1; k <= moves; k++ {
		addrs[n-1] = closedPort(t)
		reconfigureAll(t, survivors, Membership{Epoch: uint64(k), Addrs: addrs})
		decide(uint64(k + 1))
	}
	for i, s := range survivors {
		if st := s.Stats(); st.Lingering != moves+1 || st.Epoch != moves {
			t.Fatalf("process %d: %d lingering at epoch %d, want %d at %d", i, st.Lingering, st.Epoch, moves+1, moves)
		}
	}
	grown := runtime.NumGoroutine() - base
	for deadline := time.Now().Add(2 * time.Second); grown >= 8 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		grown = runtime.NumGoroutine() - base
	}
	if grown >= 8 {
		t.Fatalf("goroutines grew by %d across %d moves of one slot, want fewer than 8", grown, moves)
	}
}

// TestReplaceAfterGoodbyeRedials: a goodbye stops redials only to the
// process that said it. Process 1 drains, so every peer sees its goodbye,
// and closes; the operator replaces slot 1 at a new address, and survivors
// 2–4, the dialing side, connect to the replacement. That first connection
// counts in their Reconnects, as a restart's would. A 5-process instance
// then decides.
func TestReplaceAfterGoodbyeRedials(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svcs[1].Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		for _, s := range svcs[2:] {
			if !s.peerAt(1).saidGoodbye() {
				return false
			}
		}
		return true
	}, "processes 2–4 see process 1's goodbye")
	_ = svcs[1].Close()

	next := append([]string(nil), addrs...)
	next[1] = "127.0.0.1:0"
	repl, err := New(Config{Node: testNodeConfig(n), ID: 1, Epoch: 1, Addrs: next, Seed: 7})
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	next[1] = repl.Addr()
	mesh := []*Service{svcs[0], repl, svcs[2], svcs[3], svcs[4]}
	reconfigureAll(t, []*Service{svcs[0], svcs[2], svcs[3], svcs[4]}, Membership{Epoch: 1, Addrs: next})
	if err := repl.Establish(ctx, next); err != nil {
		t.Fatalf("replacement Establish: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		for _, s := range svcs[2:] {
			if !s.peerAt(1).connected() || s.Stats().Reconnects != 1 {
				return false
			}
		}
		return true
	}, "processes 2–4 connect to the replacement, one reconnect each")
	for i, ch := range proposeAll(t, mesh, 1, randomInputs(rand.New(rand.NewSource(43)), n, 2)) {
		if r := collect(t, ch, 10*time.Second); r.Err != nil {
			t.Fatalf("process %d: instance 1: %v", i, r.Err)
		}
	}
}

// TestReplacedLiveMemberCutOff: replacing slot 4 while the old process 4
// still runs cuts it off. Each survivor's connection to it closes at the
// survivor's Reconfigure, the old process's redials under epoch 0 are
// refused (StaleEpochRejects), it reads no frame after the cut, and the
// replacement joins and decides.
func TestReplacedLiveMemberCutOff(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	old, survivors := svcs[n-1], svcs[:n-1]

	next := append([]string(nil), addrs...)
	next[n-1] = "127.0.0.1:0"
	repl, err := New(Config{Node: testNodeConfig(n), ID: n - 1, Epoch: 1, Addrs: next, Seed: 9})
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	next[n-1] = repl.Addr()
	for i, s := range survivors {
		if err := s.Reconfigure(Membership{Epoch: 1, Addrs: next}); err != nil {
			t.Fatalf("Reconfigure(%d): %v", i, err)
		}
		// The replacement has not dialed yet, and the old process's
		// epoch-0 hello is refused: the link stays down.
		if s.peerAt(n - 1).connected() {
			t.Fatalf("process %d still connected to slot %d after Reconfigure", i, n-1)
		}
	}
	waitUntil(t, 5*time.Second, func() bool {
		for _, s := range survivors {
			if s.Stats().StaleEpochRejects == 0 {
				return false
			}
		}
		return true
	}, "every survivor refuses the old process's epoch-0 redials")
	heard := old.Stats().FramesIn

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := repl.Establish(ctx, next); err != nil {
		t.Fatalf("replacement Establish: %v", err)
	}
	mesh := append(append([]*Service(nil), survivors...), repl)
	for i, ch := range proposeAll(t, mesh, 1, randomInputs(rand.New(rand.NewSource(47)), n, 2)) {
		if r := collect(t, ch, 10*time.Second); r.Err != nil {
			t.Fatalf("process %d: instance 1: %v", i, r.Err)
		}
	}
	if got := old.Stats().FramesIn; got != heard {
		t.Errorf("the replaced process read %d frames after the cut", got-heard)
	}
	if got := old.Epoch(); got != 0 {
		t.Errorf("the replaced process moved to epoch %d", got)
	}
}

// TestFaultyMemberCannotReconfigureOthers: membership moves only by the
// operator's Reconfigure, never by a peer's word. Faulty process 4
// reconfigures itself to a far-future epoch that points slots 1 and 2 at
// a closed port; the correct processes 0–3 stay at epoch 0, decide a new
// instance there, and still accept the operator's later Reconfigure,
// which replaces process 4.
func TestFaultyMemberCannotReconfigureOthers(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(31))
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	correct := svcs[:n-1]

	hostile := append([]string(nil), addrs...)
	hostile[1], hostile[2] = "127.0.0.1:1", "127.0.0.1:1"
	if err := svcs[4].Reconfigure(Membership{Epoch: 1 << 62, Addrs: hostile}); err != nil {
		t.Fatalf("faulty Reconfigure: %v", err)
	}
	// Anything process 4 sends on the links it kept (to 0 and 3) arrives
	// well within this.
	time.Sleep(300 * time.Millisecond)
	for i, s := range correct {
		if got := s.Epoch(); got != 0 {
			t.Fatalf("process %d moved to epoch %d on a peer's word, want 0", i, got)
		}
	}
	for i, ch := range proposeAll(t, correct, 9, randomInputs(rng, n, 2)) {
		if r := collect(t, ch, 10*time.Second); r.Err != nil {
			t.Fatalf("process %d: instance 9: %v", i, r.Err)
		}
	}

	// The operator's repair: retire process 4 and admit a replacement at
	// epoch 1 on every correct process.
	_ = svcs[4].Close()
	next := append([]string(nil), addrs...)
	next[4] = "127.0.0.1:0"
	repl, err := New(Config{Node: testNodeConfig(n), ID: 4, Epoch: 1, Addrs: next, Seed: 5})
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	next[4] = repl.Addr()
	reconfigureAll(t, correct, Membership{Epoch: 1, Addrs: next})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := repl.Establish(ctx, next); err != nil {
		t.Fatalf("replacement Establish: %v", err)
	}
	mesh := append(append([]*Service(nil), correct...), repl)
	for i, ch := range proposeAll(t, mesh, 10, randomInputs(rng, n, 2)) {
		if r := collect(t, ch, 10*time.Second); r.Err != nil {
			t.Fatalf("process %d: instance 10: %v", i, r.Err)
		}
		if got := mesh[i].Epoch(); got != 1 {
			t.Fatalf("process %d at epoch %d after the repair, want 1", i, got)
		}
	}
}

// retiredAnnounce encodes a frame of the retired kind 6 as the membership
// gossip once did: epoch, address count, then each address
// length-prefixed.
func retiredAnnounce(epoch uint64, addrs []string) []byte {
	b := []byte{0, 0, 0, 0, wire.FrameVersion, 6, 0, 0, 0, 0, 0, 0, 0, 0}
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(addrs)))
	for _, a := range addrs {
		b = binary.BigEndian.AppendUint16(b, uint16(len(a)))
		b = append(b, a...)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// TestRetiredEpochFramesSkipped: frames of the retired kinds 6 and 7 —
// the old gossip's golden bytes, and an announce naming this mesh's n
// addresses — reach process 0 over a live link and are skipped: the epoch
// does not move, nothing counts as a read error, and the link stays up
// and keeps deciding.
func TestRetiredEpochFramesSkipped(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	golden := func(h string) []byte {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	frames := [][]byte{
		golden("0000001f" + "0206" + "0000000000000000" + "0000000000000002" + "0002" + "0003613a31" + "0004623a3232"),
		golden("00000012" + "0207" + "0000000000000000" + "0000000000000002"),
		retiredAnnounce(99, addrs),
	}
	before := svcs[0].Stats().FramesIn
	link := svcs[1].peerAt(0)
	for _, f := range frames {
		link.send(f)
	}
	waitUntil(t, 5*time.Second, func() bool {
		return svcs[0].Stats().FramesIn >= before+int64(len(frames))
	}, "process 0 reads the retired frames")

	for i, ch := range proposeAll(t, svcs, 1, randomInputs(rand.New(rand.NewSource(37)), n, 2)) {
		if r := collect(t, ch, 10*time.Second); r.Err != nil {
			t.Fatalf("process %d: instance 1: %v", i, r.Err)
		}
	}
	st := svcs[0].Stats()
	if st.Epoch != 0 || st.Reconfigures != 0 {
		t.Errorf("retired frames moved the membership: epoch %d, %d reconfigures", st.Epoch, st.Reconfigures)
	}
	if st.ReadErrors != 0 || st.Reconnects+svcs[1].Stats().Reconnects != 0 || !svcs[0].peerAt(1).connected() {
		t.Errorf("retired frames disturbed the link: %d read errors, %d+%d reconnects, connected %v",
			st.ReadErrors, st.Reconnects, svcs[1].Stats().Reconnects, svcs[0].peerAt(1).connected())
	}
}

// TestRefusedKeylessRedialBacksOff: a keyless dialer learns that the
// acceptor refused its handshake only when the installed conn ends, so a
// conn that ends before it delivers a frame counts as a failed dial and
// the next dial backs off. Processes 0–3 move slot 4 to a closed port at
// epoch 1 while the old process 4 keeps running and redialing them at
// epoch 0 for a second: with the backoff that is a few dozen refused
// handshakes, without it thousands.
func TestRefusedKeylessRedialBacksOff(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	old, survivors := svcs[n-1], svcs[:n-1]
	rejects := func() (sum int64) {
		for _, s := range survivors {
			sum += s.Stats().StaleEpochRejects
		}
		return sum
	}
	reconnects0, rejects0 := old.Stats().Reconnects, rejects()
	addrs[n-1] = closedPort(t)
	reconfigureAll(t, survivors, Membership{Epoch: 1, Addrs: addrs})
	time.Sleep(time.Second)
	reconnects, refused := old.Stats().Reconnects-reconnects0, rejects()-rejects0
	t.Logf("in 1s: %d reconnects by the old process, %d stale-epoch rejects by the survivors", reconnects, refused)
	if refused == 0 {
		t.Fatal("the old process never redialed a survivor")
	}
	if reconnects > 100 || refused > 100 {
		t.Errorf("%d reconnects and %d stale-epoch rejects in 1s, want each ≤ 100", reconnects, refused)
	}
}
