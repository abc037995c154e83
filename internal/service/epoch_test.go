package service

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"net"
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

// TestServiceProposeRacesReconfigure pins the epoch-pinning contract under
// a live flip: proposals issued concurrently with the Reconfigure of every
// process land on exactly one epoch — whichever the membership clock
// showed when the pin was taken — and decide there; afterwards fresh
// proposals all pin the new epoch.
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
	// is shared between the two meshes — so this is a pure epoch bump.
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
		if r.Epoch != 0 && r.Epoch != 1 {
			t.Fatalf("process %d: result pinned epoch %d, want 0 or 1", i, r.Epoch)
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
		if r.Epoch != 1 {
			t.Fatalf("process %d: post-flip instance pinned epoch %d, want 1", i, r.Epoch)
		}
	}
}

// TestServiceDuplicateInstanceAcrossEpochs: instance ids are global across
// the membership clock — reusing a live id after a Reconfigure is refused
// even though the new proposal would pin a different epoch, because peers
// route frames by id alone.
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
	if r.Epoch != 1 {
		t.Fatalf("refused proposal reports epoch %d, want the new pin 1", r.Epoch)
	}
}

// TestServiceStaleEpochHandshakeRejected: inbound handshakes claiming an
// epoch this process does not hold are refused and counted — both a
// never-seen future epoch and the retired pre-reconfigure epoch.
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

	// Retire epoch 0 (no pinned instances, unchanged addresses): a peer
	// still handshaking under it is now stale.
	reconfigureAll(t, svcs, Membership{Epoch: 1, Addrs: addrs})
	if m := svcs[0].meshForEpoch(0); m != nil {
		t.Fatal("epoch 0 still held after an unpinned reconfigure")
	}
	dialHello(0)
	waitUntil(t, 5*time.Second, func() bool {
		return svcs[0].Stats().StaleEpochRejects >= 2
	}, "retired-epoch hello counted")
}

// TestServiceOldEpochRetiresAfterLastPin: a superseded epoch's link set
// survives exactly as long as an instance pinned to it — here a decided
// instance lingering for lagging peers — and its unique links are stopped
// only when that last pin tombstones. Links whose address did not change
// are shared with the new mesh, not duplicated. Process 4 never proposes,
// so the instance cannot quiesce and lingers for its whole window.
func TestServiceOldEpochRetiresAfterLastPin(t *testing.T) {
	const n = 5
	const linger = 300 * time.Millisecond
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.LingerTimeout = linger
	})
	rng := rand.New(rand.NewSource(29))
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}

	chans := proposeAll(t, svcs[:n-1], 1, randomInputs(rng, n, 2))
	for i := range chans {
		if r := collect(t, chans[i], 10*time.Second); r.Err != nil {
			t.Fatalf("process %d: %v", i, r.Err)
		}
	}

	oldShared := svcs[0].peerAt(1)
	oldUnique := svcs[0].peerAt(4)
	// Replace member 4's address on every survivor: its slot gets a fresh
	// link at epoch 1, making the epoch-0 link to 4 unique to the retiring
	// mesh. Port 1 is never listening — the replacement process "has not
	// started yet".
	next := append([]string(nil), addrs...)
	next[4] = "127.0.0.1:1"
	reconfigureAll(t, svcs[:n-1], Membership{Epoch: 1, Addrs: next})
	if got := svcs[0].Epoch(); got != 1 {
		t.Fatalf("epoch %d after Reconfigure, want 1", got)
	}
	// The decided instance is still lingering, pinning epoch 0: the old
	// mesh must be held and nothing retired yet.
	if svcs[0].meshForEpoch(0) == nil {
		t.Fatal("epoch 0 dropped while a lingering instance still pins it")
	}
	if got := svcs[0].Stats().RetiredEpochs; got != 0 {
		t.Fatalf("RetiredEpochs = %d with a live pin, want 0", got)
	}
	if svcs[0].peerAt(1) != oldShared {
		t.Fatal("unchanged-address link was not shared between epochs")
	}
	if svcs[0].peerAt(4) == oldUnique {
		t.Fatal("re-addressed slot kept the old link instead of a fresh one")
	}

	// Once the linger window closes the instance tombstones, the pin is
	// released, and the old epoch retires (stopping its unique links).
	waitUntil(t, 10*linger+2*time.Second, func() bool {
		return svcs[0].meshForEpoch(0) == nil && svcs[0].Stats().RetiredEpochs == 1
	}, "epoch 0 retires after the last pinned instance tombstones")
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
		if r := collect(t, ch, 10*time.Second); r.Err != nil || r.Epoch != 0 {
			t.Fatalf("process %d: instance 9 at epoch %d: %v", i, r.Epoch, r.Err)
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
		if r := collect(t, ch, 10*time.Second); r.Err != nil || r.Epoch != 1 {
			t.Fatalf("process %d: instance 10 at epoch %d: %v", i, r.Epoch, r.Err)
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
		if r := collect(t, ch, 10*time.Second); r.Err != nil || r.Epoch != 0 {
			t.Fatalf("process %d: instance 1 at epoch %d: %v", i, r.Epoch, r.Err)
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
