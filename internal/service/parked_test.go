package service

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The parked tests hold the pre-Propose buffer to its budget: a frame for
// an instance not proposed here waits in the instance's row, charged to
// its sender, and a sender over QueueDepth parked frames loses its own
// frames, never another peer's.

// rbcInit is peer from's round-1 INIT of value for instance id.
func rbcInit(id uint64, from int, value geometry.Vector) inMsg {
	return inMsg{instance: id, from: from, msg: aad.Msg{Kind: aad.KindRBC,
		RBC: broadcast.RBCMsg{Phase: broadcast.RBCInit, Origin: sim.ProcID(from), Tag: 1, Value: value}}}
}

// TestCrowdOutSpendsOnlyTheSendersBudget: process 4 filling one instance
// with QueueDepth frames before it is proposed here spends process 4's
// budget, not the instance's — process 1's INIT for the same instance
// still parks and is replayed once the instance is proposed, process 4's
// next frame is the one dropped, and process 1 can still park elsewhere.
func TestCrowdOutSpendsOnlyTheSendersBudget(t *testing.T) {
	const n, id = 5, 7
	sh := detachedShard(0, n, Config{}.withDefaults())
	depth := int64(sh.svc.cfg.QueueDepth)
	flood := inMsg{instance: id, from: 4, msg: aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{Round: 1, Origin: 4}}}
	for range depth {
		sh.deliver(&flood)
	}
	init := rbcInit(id, 1, geometry.Vector{0.25, 0.75})
	sh.deliver(&init)
	if st := sh.svc.Stats(); st.PendingDropped != 0 || st.PendingFrames != depth+1 {
		t.Fatalf("after process 4's %d frames and process 1's INIT: %d parked, %d dropped; want %d and 0",
			depth, st.PendingFrames, st.PendingDropped, depth+1)
	}
	sh.deliver(&flood)
	other := rbcInit(id+1, 1, geometry.Vector{0.5, 0.5})
	sh.deliver(&other)
	if st := sh.svc.Stats(); st.PendingDropped != 1 || st.PendingFrames != depth+2 {
		t.Fatalf("after one more frame each: %d parked, %d dropped; want %d and process 4's 1", st.PendingFrames, st.PendingDropped, depth+2)
	}
	openDetached(t, sh, 0, id, geometry.Vector{0.5, 0.5})
	want := wire.AppendConsensus(nil, id, &wire.ConsensusMsg{Kind: wire.ConsensusRBC, Phase: uint8(broadcast.RBCEcho), Origin: 1, Round: 1, Value: []float64{0.25, 0.75}})
	got, _ := sh.svc.peers[2].out.take(nil)
	if !containsFrame(got, want) {
		t.Error("process 1's INIT was not replayed: peer 2's outbox holds no ECHO of it")
	}
	if st := sh.svc.Stats(); st.PendingFrames != 1 {
		t.Errorf("%d frames parked after the proposal, want process 1's one for instance %d", st.PendingFrames, id+1)
	}
}

// TestParkedRowExpiresUntombstoned: a waiting row never proposed here is
// dropped at its deadline, InstanceTimeout after its first frame; its
// frames count as dropped and go back to their senders' budgets, and its
// id stays open, so a later Propose of it runs.
func TestParkedRowExpiresUntombstoned(t *testing.T) {
	const n, id = 5, 3
	sh := detachedShard(0, n, Config{InstanceTimeout: time.Minute})
	start := time.Now()
	for from := 1; from < n; from++ {
		m := rbcInit(id, from, geometry.Vector{0.5, 0.5})
		sh.deliver(&m)
	}
	sh.expire(start.Add(time.Minute / 2))
	if sh.instances[id] == nil {
		t.Fatal("the waiting row expired before its deadline")
	}
	sh.expire(time.Now().Add(time.Minute + tick))
	st := sh.svc.Stats()
	if sh.instances[id] != nil || sh.tombs.has(id) || st.PendingFrames != 0 || st.PendingDropped != n-1 {
		t.Fatalf("after the deadline: row %v, tombstoned %v, %d parked, %d dropped; want no row, no tombstone, 0 and %d",
			sh.instances[id], sh.tombs.has(id), st.PendingFrames, st.PendingDropped, n-1)
	}
	for from, c := range sh.parked {
		if c != 0 {
			t.Errorf("peer %d still charged %d parked frames", from, c)
		}
	}
	openDetached(t, sh, 0, id, geometry.Vector{0.5, 0.5})
	if inst := sh.instances[id]; inst == nil || inst.state != instRunning {
		t.Fatalf("Propose after the row expired did not open instance %d", id)
	}
}

// floodIDs is how many distinct instance ids the one-peer floods name.
const floodIDs = 1_000_000

// TestParkedFloodIsBounded: one peer's single frames for 10⁶ distinct ids
// never proposed here park at most QueueDepth frames — every row holds a
// frame, so the rows are bounded too — and grow the heap by at most 2 MB.
func TestParkedFloodIsBounded(t *testing.T) {
	sh := detachedShard(0, 5, Config{}.withDefaults())
	depth := int64(sh.svc.cfg.QueueDepth)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := rbcInit(0, 4, geometry.Vector{0.5, 0.5})
	for id := uint64(1); id <= floodIDs; id++ {
		m.instance = id
		sh.deliver(&m)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := sh.svc.Stats()
	if st.PendingFrames != depth || st.PendingDropped != floodIDs-depth {
		t.Errorf("flood of %d ids: %d parked, %d dropped; want %d and %d", floodIDs, st.PendingFrames, st.PendingDropped, depth, floodIDs-depth)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %.2f MB for %d parked frames", float64(grew)/(1<<20), st.PendingFrames)
	if !raceflag.Enabled && grew > 2<<20 {
		t.Errorf("heap grew %.2f MB, want ≤ 2 MB", float64(grew)/(1<<20))
	}
	runtime.KeepAlive(sh)
}

// TestLiveFloodChargesOnlyItsSender: on a live 5-process mesh, process 0's
// loop takes a flood of frames for 10⁶ ids nobody proposes as if from peer
// 4, through the path peer 4's reader uses, while all five processes
// propose instances. Every instance decides, no other process drops a
// frame, and process 0 drops the flood's excess plus, at most, frames the
// real peer 4 sent; peers 1–3 end with nothing parked there.
func TestLiveFloodChargesOnlyItsSender(t *testing.T) {
	const n, instances = 5, 40
	svcs := startMesh(t, n, nil)
	rng := rand.New(rand.NewSource(52))
	var flooded sync.WaitGroup
	flooded.Add(1)
	go func() {
		defer flooded.Done()
		burst := make([]inMsg, 250) // divides floodIDs
		for i := range burst {
			burst[i] = rbcInit(0, 4, geometry.Vector{0.5, 0.5})
		}
		for id := uint64(0); id < floodIDs; id += uint64(len(burst)) {
			for i := range burst {
				burst[i].instance = 1<<40 + id + uint64(i)
			}
			if !svcs[0].loop.receive(burst) {
				return
			}
		}
	}()
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
	flooded.Wait()
	// The loop has delivered the whole flood once each of its frames is
	// parked or dropped.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(tick) {
		if st := svcs[0].Stats(); st.PendingFrames+st.PendingDropped >= floodIDs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("process 0 never delivered the flood: %+v", svcs[0].Stats())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, s := range svcs {
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	for i, s := range svcs[1:] {
		if st := s.Stats(); st.PendingDropped != 0 || st.PendingFrames != 0 {
			t.Errorf("process %d: %d parked, %d dropped; want none", i+1, st.PendingFrames, st.PendingDropped)
		}
	}
	st, sent4 := svcs[0].Stats(), svcs[4].Stats().FramesOut
	_ = svcs[0].Close() // the loop is gone: its budgets can be read
	parked := svcs[0].loop.parked
	excess := floodIDs - int64(parked[4])
	if st.PendingFrames != int64(parked[4]) || parked[4] > svcs[0].cfg.QueueDepth {
		t.Errorf("process 0: %d frames parked, peer 4 charged %d; want the flood's rows alone, at most QueueDepth", st.PendingFrames, parked[4])
	}
	if parked[1]+parked[2]+parked[3] != 0 {
		t.Errorf("process 0 still charges peers 1–3 with %v parked frames", parked[1:4])
	}
	if real := st.PendingDropped - excess; real < 0 || real > sent4 {
		t.Errorf("process 0 dropped %d frames: the flood's excess is %d, and peer 4 sent only %d", st.PendingDropped, excess, sent4)
	}
}
