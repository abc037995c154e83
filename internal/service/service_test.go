package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/hull"
)

// testNodeConfig is the small-mesh consensus configuration the service
// tests run: n = 5 = (d+2)f+1 with d = 2, f = 1, on a fixed 4-round
// horizon (the analytic bound is ~74 rounds; hull validity holds from
// round 1, which is what these tests assert — ε-agreement at the analytic
// horizon is the simulator suites' job).
func testNodeConfig(n int) core.AsyncConfig {
	return core.AsyncConfig{
		Params: core.Params{
			N: n, F: 1, D: 2,
			Epsilon: 0.05,
			Bounds:  geometry.UniformBox(2, 0, 1),
		},
		MaxRounds: 4,
	}
}

// startMesh builds and establishes an n-process loopback mesh. Services
// are closed at test cleanup.
func startMesh(t *testing.T, n int, mut func(id int, cfg *Config)) []*Service {
	t.Helper()
	svcs := make([]*Service, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Node:  testNodeConfig(n),
			ID:    i,
			Addrs: loopbackTemplate(n),
			Seed:  int64(i + 1),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		t.Cleanup(func() { _ = s.Close() })
		svcs[i] = s
		addrs[i] = s.Addr()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
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
		if err != nil {
			t.Fatalf("Establish(%d): %v", i, err)
		}
	}
	return svcs
}

// peerAt returns the current mesh's link to peer id.
func (s *Service) peerAt(id int) *peerLink { return s.currentMesh().peers[id] }

// killConn force-closes the current connection to peer, if one is
// installed: the link reacts exactly as if the connection had failed.
func (s *Service) killConn(peer int) {
	p := s.peerAt(peer)
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

func loopbackTemplate(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// proposeAll proposes instance id with per-process inputs on every
// service and returns one result channel per process.
func proposeAll(t *testing.T, svcs []*Service, id uint64, inputs []geometry.Vector) []<-chan Result {
	t.Helper()
	chans := make([]<-chan Result, len(svcs))
	for i, s := range svcs {
		ch, err := s.Propose(id, inputs[i])
		if err != nil {
			t.Fatalf("Propose(%d, inst %d): %v", i, id, err)
		}
		chans[i] = ch
	}
	return chans
}

func randomInputs(rng *rand.Rand, n, d int) []geometry.Vector {
	inputs := make([]geometry.Vector, n)
	for i := range inputs {
		v := make(geometry.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		inputs[i] = v
	}
	return inputs
}

func collect(t *testing.T, ch <-chan Result, within time.Duration) Result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(within):
		t.Fatalf("no result within %v", within)
		return Result{}
	}
}

// TestServiceManyInstances runs many concurrent instances through one
// mesh and checks every process decides every instance with a decision
// inside the instance's input hull (the validity condition the paper
// guarantees from round 1).
func TestServiceManyInstances(t *testing.T) {
	const n, instances = 5, 24
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(7))

	type run struct {
		inputs []geometry.Vector
		chans  []<-chan Result
	}
	runs := make(map[uint64]run, instances)
	for id := uint64(1); id <= instances; id++ {
		inputs := randomInputs(rng, n, 2)
		runs[id] = run{inputs: inputs, chans: proposeAll(t, svcs, id, inputs)}
	}
	for id, r := range runs {
		for i, ch := range r.chans {
			res := collect(t, ch, 30*time.Second)
			if res.Err != nil {
				t.Fatalf("instance %d process %d: %v", id, i, res.Err)
			}
			if res.Instance != id {
				t.Fatalf("instance %d process %d: result for %d", id, i, res.Instance)
			}
			in, err := hull.Contains(r.inputs, res.Decision, 1e-9)
			if err != nil {
				t.Fatalf("instance %d: containment: %v", id, err)
			}
			if !in {
				t.Errorf("instance %d process %d: decision %v outside input hull %v", id, i, res.Decision, r.inputs)
			}
		}
	}
	for i, s := range svcs {
		if err := s.Err(); err != nil {
			t.Errorf("service %d background error: %v", i, err)
		}
		st := s.Stats()
		if st.ActiveInstances != 0 {
			t.Errorf("service %d: %d instances still active", i, st.ActiveInstances)
		}
		if st.Decided != instances {
			t.Errorf("service %d: decided %d, want %d", i, st.Decided, instances)
		}
		if st.FramesIn == 0 || st.FramesOut == 0 || st.BytesOut == 0 {
			t.Errorf("service %d: frame counters empty: %+v", i, st)
		}
	}
}

// TestServiceSyscallCounters: on a 5-process mesh every link writer
// batches at least one frame per Write and every reader gets at least one
// frame per Read, so once the mesh is closed 0 < Writes ≤ FramesOut and
// 0 < Reads ≤ FramesIn on every process.
func TestServiceSyscallCounters(t *testing.T) {
	const n, instances = 5, 16
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(29))
	var all [][]<-chan Result
	for id := uint64(1); id <= instances; id++ {
		all = append(all, proposeAll(t, svcs, id, randomInputs(rng, n, 2)))
	}
	for _, chans := range all {
		for i, ch := range chans {
			if res := collect(t, ch, 30*time.Second); res.Err != nil {
				t.Fatalf("process %d: %v", i, res.Err)
			}
		}
	}
	// Closed, so no reader holds bytes it has read but not yet counted as
	// frames.
	for _, s := range svcs {
		_ = s.Close()
	}
	for i, s := range svcs {
		st := s.Stats()
		if st.Writes <= 0 || st.Writes > st.FramesOut {
			t.Errorf("service %d: %d writes for %d frames out, want 0 < writes ≤ frames", i, st.Writes, st.FramesOut)
		}
		if st.Reads <= 0 || st.Reads > st.FramesIn {
			t.Errorf("service %d: %d reads for %d frames in, want 0 < reads ≤ frames", i, st.Reads, st.FramesIn)
		}
	}
}

// TestServiceLatePropose delays one process's proposal: the early
// processes' round-1 traffic must be buffered and replayed so everyone
// still decides.
func TestServiceLatePropose(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(11))
	inputs := randomInputs(rng, n, 2)

	chans := make([]<-chan Result, n)
	for i := 0; i < n-1; i++ {
		ch, err := svcs[i].Propose(1, inputs[i])
		if err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
		chans[i] = ch
	}
	time.Sleep(150 * time.Millisecond) // let early traffic arrive and buffer
	last := svcs[n-1]
	if got := last.Stats().PendingFrames; got == 0 {
		t.Error("late process buffered no pending frames (want > 0)")
	}
	ch, err := last.Propose(1, inputs[n-1])
	if err != nil {
		t.Fatalf("late Propose: %v", err)
	}
	chans[n-1] = ch
	for i, ch := range chans {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
	}
}

// TestServiceDuplicateInstance rejects reuse of a live or recently
// finished id.
func TestServiceDuplicateInstance(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(3))
	inputs := randomInputs(rng, n, 2)
	chans := proposeAll(t, svcs, 9, inputs)
	for _, ch := range chans {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("first run: %v", res.Err)
		}
	}
	ch, err := svcs[0].Propose(9, inputs[0])
	if err != nil {
		t.Fatalf("re-Propose: %v", err)
	}
	if res := collect(t, ch, 10*time.Second); !errors.Is(res.Err, ErrDuplicateInstance) {
		t.Fatalf("re-Propose result: %v, want ErrDuplicateInstance", res.Err)
	}
}

// TestServiceInstanceTimeout: an instance only one process proposes can
// never decide; it must be retired with ErrInstanceTimeout, and the
// other processes' buffered frames for it must expire.
func TestServiceInstanceTimeout(t *testing.T) {
	const n = 5
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.InstanceTimeout = 300 * time.Millisecond
	})
	ch, err := svcs[0].Propose(77, geometry.Vector{0.5, 0.5})
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	res := collect(t, ch, 10*time.Second)
	if !errors.Is(res.Err, ErrInstanceTimeout) {
		t.Fatalf("result %v, want ErrInstanceTimeout", res.Err)
	}
	if got := svcs[0].Stats().TimedOut; got != 1 {
		t.Errorf("TimedOut = %d, want 1", got)
	}
	// The peers buffered p0's round-1 frames for instance 77; the pending
	// boxes expire on the same clock.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if svcs[1].Stats().PendingFrames == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending frames never expired: %+v", svcs[1].Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServiceStatsSnapshot sanity-checks the gauge bookkeeping under a
// small load burst.
func TestServiceStatsSnapshot(t *testing.T) {
	const n, instances = 5, 8
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(5))
	var all [][]<-chan Result
	for id := uint64(1); id <= instances; id++ {
		all = append(all, proposeAll(t, svcs, id, randomInputs(rng, n, 2)))
	}
	for _, chans := range all {
		for _, ch := range chans {
			if res := collect(t, ch, 30*time.Second); res.Err != nil {
				t.Fatalf("%v", res.Err)
			}
		}
	}
	for i, s := range svcs {
		st := s.Stats()
		if st.Proposed != instances || st.Decided != instances {
			t.Errorf("service %d: proposed %d decided %d, want %d/%d", i, st.Proposed, st.Decided, instances, instances)
		}
		if st.PendingFrames != 0 {
			t.Errorf("service %d: %d pending frames after quiesce", i, st.PendingFrames)
		}
	}
}

func TestServiceConfigValidation(t *testing.T) {
	cfg := Config{Node: testNodeConfig(5), ID: 0, Addrs: loopbackTemplate(5)}
	cfg.Node.N = 4 // mismatch vs 5 addresses
	if _, err := New(cfg); err == nil {
		t.Error("n mismatch accepted")
	}
	cfg = Config{Node: testNodeConfig(5), ID: 9, Addrs: loopbackTemplate(5)}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range id accepted")
	}
	cfg = Config{Node: testNodeConfig(5), ID: 0, Addrs: loopbackTemplate(5)}
	cfg.Node.F = 2 // n=5 < (d+2)f+1=9
	if _, err := New(cfg); err == nil {
		t.Error("invalid consensus bound accepted")
	}
}

func ExampleService() {
	// Compile-only sketch of the service lifecycle; the runnable version
	// is examples/tcpcluster.
	fmt.Println("see examples/tcpcluster")
	// Output: see examples/tcpcluster
}
