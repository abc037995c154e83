package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/hull"
)

// startChaosMesh builds an n-process mesh with one chaos.Injector per
// process wired in as its Transport (manual fault control unless a
// scenario is given).
func startChaosMesh(t *testing.T, n int, scn *chaos.Scenario, mut func(id int, cfg *Config)) ([]*Service, []*chaos.Injector) {
	t.Helper()
	injs := make([]*chaos.Injector, n)
	for i := range injs {
		inj, err := chaos.NewInjector(scn, n, i)
		if err != nil {
			t.Fatalf("injector %d: %v", i, err)
		}
		injs[i] = inj
		t.Cleanup(inj.Stop)
	}
	svcs := startMesh(t, n, func(id int, cfg *Config) {
		cfg.Transport = injs[id]
		if mut != nil {
			mut(id, cfg)
		}
	})
	return svcs, injs
}

// awaitStat polls until pred holds on the service's stats or the deadline
// passes.
func awaitStat(t *testing.T, s *Service, what string, within time.Duration, pred func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if pred(s.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not reached within %v: %+v", what, within, s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitLink polls until s's link to peer is in state want and pred holds
// on s's stats, or the deadline passes.
func awaitLink(t *testing.T, s *Service, peer int, want linkState, within time.Duration, pred func(Stats) bool) {
	t.Helper()
	awaitStat(t, s, fmt.Sprintf("link to %d %v", peer, want), within, func(st Stats) bool {
		return s.peerAt(peer).linkState() == want && pred(st)
	})
}

// TestServicePartitionHealReconnect is the partition-then-heal e2e:
// process 0 is fully partitioned (conns severed, dials refused) before an
// instance is proposed, the n−f survivors decide it anyway, and after the
// heal the rejoining process catches up from the survivors' lingering
// instances and decides the same valid way. Every survivor's link to 0 is
// dialing while the partition holds and connected after the heal.
func TestServicePartitionHealReconnect(t *testing.T) {
	const n = 5
	svcs, injs := startChaosMesh(t, n, nil, func(_ int, cfg *Config) {
		cfg.InstanceTimeout = 30 * time.Second
		cfg.MaxDialBackoff = 150 * time.Millisecond
	})
	rng := rand.New(rand.NewSource(21))
	inputs := randomInputs(rng, n, 2)

	groups := [][]int{{0}, {1, 2, 3, 4}}
	for _, inj := range injs {
		inj.Partition(groups)
	}
	chans := proposeAll(t, svcs, 1, inputs)

	// Survivors hold exactly n−f processes and must decide without 0.
	for i := 1; i < n; i++ {
		res := collect(t, chans[i], 30*time.Second)
		if res.Err != nil {
			t.Fatalf("survivor %d: %v", i, res.Err)
		}
		if in, err := hull.Contains(inputs, res.Decision, 1e-9); err != nil || !in {
			t.Fatalf("survivor %d: decision %v outside hull (err %v)", i, res.Decision, err)
		}
	}
	// The severed links redial: survivors' dials to 0 are refused.
	for i := 1; i < n; i++ {
		awaitLink(t, svcs[i], 0, linkDialing, 20*time.Second, func(st Stats) bool {
			return st.DialFailures > 0
		})
	}

	for _, inj := range injs {
		inj.HealAll()
	}
	// After the heal the rejoiner is served by lingering instances.
	res := collect(t, chans[0], 30*time.Second)
	if res.Err != nil {
		t.Fatalf("rejoiner: %v", res.Err)
	}
	if in, err := hull.Contains(inputs, res.Decision, 1e-9); err != nil || !in {
		t.Fatalf("rejoiner: decision %v outside hull (err %v)", res.Decision, err)
	}
	for i := 1; i < n; i++ {
		awaitLink(t, svcs[i], 0, linkConnected, 20*time.Second, func(st Stats) bool {
			return st.Reconnects > 0
		})
	}
	for i, s := range svcs {
		if err := s.Err(); err != nil {
			t.Errorf("service %d structural error: %v", i, err)
		}
	}
}

// TestServiceCrashRestart is the crash-restart e2e: the highest-id
// process is closed mid-service, the survivors keep deciding new
// instances at exactly n−f, and a fresh process restarted on the same
// address rejoins the mesh and decides subsequent instances with
// everyone.
func TestServiceCrashRestart(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.MaxDialBackoff = 150 * time.Millisecond
	})
	rng := rand.New(rand.NewSource(31))
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}

	inputs := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 1, inputs) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("healthy mesh, process %d: %v", i, res.Err)
		}
	}

	crashed := svcs[n-1]
	_ = crashed.Close()

	// Survivors decide with the crashed process dark (n−f quorum).
	inputs2 := randomInputs(rng, n, 2)
	var chans []<-chan Result
	for i := 0; i < n-1; i++ {
		ch, err := svcs[i].Propose(2, inputs2[i])
		if err != nil {
			t.Fatalf("survivor Propose(%d): %v", i, err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		res := collect(t, ch, 30*time.Second)
		if res.Err != nil {
			t.Fatalf("survivor %d during crash: %v", i, res.Err)
		}
		if in, err := hull.Contains(inputs2[:n-1], res.Decision, 1e-9); err != nil || !in {
			t.Fatalf("survivor %d: decision %v outside survivor hull (err %v)", i, res.Decision, err)
		}
	}

	// Restart on the same address; the restarted process dials every
	// lower id, so Establish completing means the mesh is whole again.
	cfg := Config{
		Node:           testNodeConfig(n),
		ID:             n - 1,
		Addrs:          addrs,
		Seed:           99,
		MaxDialBackoff: 150 * time.Millisecond,
	}
	reborn, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	t.Cleanup(func() { _ = reborn.Close() })
	if err := reborn.Establish(context.Background(), addrs); err != nil {
		t.Fatalf("restart Establish: %v", err)
	}
	svcs[n-1] = reborn

	inputs3 := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 3, inputs3) {
		res := collect(t, ch, 30*time.Second)
		if res.Err != nil {
			t.Fatalf("post-restart process %d: %v", i, res.Err)
		}
		if in, err := hull.Contains(inputs3, res.Decision, 1e-9); err != nil || !in {
			t.Fatalf("post-restart %d: decision %v outside hull (err %v)", i, res.Decision, err)
		}
	}
	for i, s := range svcs {
		if err := s.Err(); err != nil {
			t.Errorf("service %d structural error: %v", i, err)
		}
	}
}

// TestServiceCorruptionTolerated runs a mesh where every frame from
// process 0 to process 1 has a byte flipped: frames that still parse act
// as Byzantine values from one process (tolerated at f=1), frames that
// don't count as read errors and recycle the conn — and none of it may
// poison Err() or validity.
func TestServiceCorruptionTolerated(t *testing.T) {
	const n = 5
	scn := &chaos.Scenario{
		Name:  "corrupt-0-to-1",
		Seed:  5,
		Links: []chaos.LinkFault{{From: 0, To: 1, Corrupt: 1}},
	}
	svcs, _ := startChaosMesh(t, n, scn, func(_ int, cfg *Config) {
		cfg.MaxDialBackoff = 100 * time.Millisecond
	})
	rng := rand.New(rand.NewSource(41))
	inputs := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 1, inputs) {
		res := collect(t, ch, 30*time.Second)
		if res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
		if in, err := hull.Contains(inputs, res.Decision, 1e-9); err != nil || !in {
			t.Fatalf("process %d: decision %v outside hull (err %v)", i, res.Decision, err)
		}
	}
	for i, s := range svcs {
		if err := s.Err(); err != nil {
			t.Errorf("service %d structural error from injected corruption: %v", i, err)
		}
	}
}

// TestServiceRedialBackoffLadder drives the redial loop directly: every
// survivor's link to a closed peer stays dialing while its dials fail, and
// a restart on the same address reconnects it; the link is connected once
// the restarted process decides an instance with the survivors.
func TestServiceRedialBackoffLadder(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.DialBackoff = 10 * time.Millisecond
		cfg.MaxDialBackoff = 80 * time.Millisecond
	})
	addrs := make([]string, n)
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	_ = svcs[0].Close() // lowest id: every survivor owns redialing to it

	for i := 1; i < n; i++ {
		awaitLink(t, svcs[i], 0, linkDialing, 20*time.Second, func(st Stats) bool {
			return st.DialFailures >= 3
		})
	}

	cfg := Config{
		Node:           testNodeConfig(n),
		ID:             0,
		Addrs:          addrs,
		Seed:           7,
		DialBackoff:    10 * time.Millisecond,
		MaxDialBackoff: 80 * time.Millisecond,
	}
	reborn, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	t.Cleanup(func() { _ = reborn.Close() })
	if err := reborn.Establish(context.Background(), addrs); err != nil {
		t.Fatalf("restart Establish: %v", err)
	}
	svcs[0] = reborn
	rng := rand.New(rand.NewSource(17))
	for i, ch := range proposeAll(t, svcs, 1, randomInputs(rng, n, 2)) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("after restart, process %d: %v", i, res.Err)
		}
	}
	for i := 1; i < n; i++ {
		awaitLink(t, svcs[i], 0, linkConnected, 20*time.Second, func(st Stats) bool {
			return st.Reconnects >= 1
		})
	}
}

// TestServiceAuthKeyedMesh: a mesh sharing a key establishes, decides,
// and survives a keyed redial after a killed conn.
func TestServiceAuthKeyedMesh(t *testing.T) {
	const n = 5
	key := []byte("correct horse battery staple")
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.AuthKey = key
		cfg.MaxDialBackoff = 100 * time.Millisecond
	})
	rng := rand.New(rand.NewSource(61))
	inputs := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 1, inputs) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("keyed mesh, process %d: %v", i, res.Err)
		}
	}
	// A killed conn re-establishes through the keyed handshake.
	svcs[1].killConn(0)
	awaitStat(t, svcs[1], "keyed reconnect", 20*time.Second, func(st Stats) bool {
		return st.Reconnects >= 1
	})
	inputs2 := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 2, inputs2) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("after keyed reconnect, process %d: %v", i, res.Err)
		}
	}
	for i, s := range svcs {
		if st := s.Stats(); st.AuthFailures != 0 {
			t.Errorf("service %d: %d auth failures on an honest mesh", i, st.AuthFailures)
		}
	}
}

// TestServiceAuthRejections: wrong keys and mode mismatches must keep the
// mesh from establishing, and keyed acceptors count the rejections.
func TestServiceAuthRejections(t *testing.T) {
	const n = 5
	key := []byte("sesame")
	build := func(id int, authKey []byte) *Service {
		cfg := Config{
			Node:             testNodeConfig(n),
			ID:               id,
			Addrs:            loopbackTemplate(n),
			Seed:             int64(id + 1),
			AuthKey:          authKey,
			EstablishTimeout: 700 * time.Millisecond,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	svcs := make([]*Service, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		k := key
		switch i {
		case 3:
			k = nil // mode mismatch: keyless process in a keyed mesh
		case 4:
			k = []byte("wrong")
		}
		svcs[i] = build(i, k)
		addrs[i] = svcs[i].Addr()
	}
	// Establish is bounded by its ctx alone: give the mesh 700ms.
	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range svcs {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Establish(ctx, addrs)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("process %d established despite key/mode mismatch", i)
		}
	}
	var rejections int64
	for i := 0; i < 3; i++ { // the correctly keyed acceptors
		rejections += svcs[i].Stats().AuthFailures
	}
	if rejections == 0 {
		t.Error("no auth rejections recorded on keyed acceptors")
	}
}

// TestServiceKillConnRecovers kills one link's connection from both
// ends: the link re-forms and instances keep deciding.
func TestServiceKillConnRecovers(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.MaxDialBackoff = 100 * time.Millisecond
	})
	rng := rand.New(rand.NewSource(71))
	svcs[4].killConn(2)
	svcs[2].killConn(4) // idempotent from either side
	inputs := randomInputs(rng, n, 2)
	for i, ch := range proposeAll(t, svcs, 1, inputs) {
		res := collect(t, ch, 30*time.Second)
		if res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
		if in, err := hull.Contains(inputs, res.Decision, 1e-9); err != nil || !in {
			t.Fatalf("process %d: decision %v outside hull (err %v)", i, res.Decision, err)
		}
	}
}
