package service

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/sim"
	"repro/internal/wire"
)

// openDetached opens instance id for process self on a detached shard and
// returns the channel its result arrives on.
func openDetached(t testing.TB, sh *shard, self int, id uint64, input geometry.Vector) chan Result {
	t.Helper()
	sh.svc.cfg.Node = testNodeConfig(len(sh.svc.peers))
	sh.svc.cfg.InstanceTimeout = time.Hour
	sh.svc.cfg.LingerTimeout = time.Hour
	node, err := core.NewAsyncNode(sh.svc.cfg.Node, sim.ProcID(self), input)
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan Result, 1)
	sh.open(proposeReq{id: id, node: node, res: res})
	sh.drainLocal()
	return res
}

// peerTraffic runs one whole instance on an in-memory mesh of Steps and
// returns, in delivery order, every message the other processes sent to
// process 0. The silent processes never start: they send nothing, and what
// is sent to them is lost.
func peerTraffic(t *testing.T, cfg core.AsyncConfig, inputs []geometry.Vector, silent ...int) []inMsg {
	t.Helper()
	type item struct {
		from, to int
		msg      aad.Msg
	}
	nodes := make([]*core.AsyncNode, cfg.N)
	var queue []item
	post := func(from int) {
		for _, o := range nodes[from].Outbox() {
			for to := range nodes {
				queue = append(queue, item{from, to, o})
			}
		}
	}
	for p := range nodes {
		if slices.Contains(silent, p) {
			continue
		}
		nd, err := core.NewAsyncNode(cfg, sim.ProcID(p), inputs[p])
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = nd
		nd.Start()
		post(p)
	}
	var to0 []inMsg
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		if it.to == 0 && it.from != 0 {
			to0 = append(to0, inMsg{instance: 1, from: it.from, msg: it.msg})
		}
		if nodes[it.to] == nil {
			continue
		}
		nodes[it.to].Step(sim.ProcID(it.from), &it.msg)
		post(it.to)
	}
	return to0
}

// TestShardKeepsNothingOfABurst is the ownership rule seen from the
// reader's side of the shard: once the shard has drained a burst, the
// burst's messages, the chunk their vectors were decoded into and the
// reader's buffers are the reader's to overwrite — no tally, delivery,
// Result or decision may change. Two shards host process 0 of the same
// instance and are fed the same peer traffic; behind one of them everything
// is scribbled over after every drain.
func TestShardKeepsNothingOfABurst(t *testing.T) {
	const n, id, burstLen = 5, 1, 7
	cfg := testNodeConfig(n)
	rng := rand.New(rand.NewSource(21))
	inputs := make([]geometry.Vector, n)
	for i := range inputs {
		inputs[i] = geometry.Vector{rng.Float64(), rng.Float64()}
	}
	traffic := peerTraffic(t, cfg, inputs)

	run := func(scribble bool) Result {
		sh := detachedShard(0, n, Config{OutboxDepth: 1 << 14, QueueDepth: 64})
		res := openDetached(t, sh, 0, id, inputs[0])
		var frame []byte
		var dec wire.ConsensusMsg
		for at := 0; at < len(traffic); at += burstLen {
			// One reader burst: every message through the codec into a
			// fresh chunk, as readLoop does.
			var chunk vecChunk
			var burst []inMsg
			for _, m := range traffic[at:min(at+burstLen, len(traffic))] {
				var w wire.ConsensusMsg
				if err := toWire(&m.msg, &w); err != nil {
					t.Fatal(err)
				}
				frame = wire.AppendConsensus(frame[:0], id, &w)
				_, body, err := wire.ParseFrame(frame[4:])
				if err != nil {
					t.Fatal(err)
				}
				if err := chunk.decode(&dec, body, cfg.D); err != nil {
					t.Fatal(err)
				}
				msg, err := fromWire(&dec)
				if err != nil {
					t.Fatal(err)
				}
				burst = append(burst, inMsg{instance: id, from: m.from, msg: msg})
			}
			if !sh.receive(burst) {
				t.Fatal("shard stopped")
			}
			sh.drainInbox()
			sh.flush()
			if scribble {
				whole := chunk.buf[:cap(chunk.buf)]
				for i := range whole {
					whole[i] = -7e77
				}
				for i := range frame {
					frame[i] = 0xee
				}
				for i := range burst {
					burst[i] = inMsg{instance: 99, from: 3}
				}
			}
		}
		select {
		case r := <-res:
			return r
		default:
			t.Fatalf("scribble=%v: process 0 did not decide on the whole of its peers' traffic", scribble)
			return Result{}
		}
	}
	clean, scribbled := run(false), run(true)
	if clean.Err != nil || scribbled.Err != nil {
		t.Fatalf("errors: clean %v, scribbled %v", clean.Err, scribbled.Err)
	}
	if !geometry.Vector(clean.Decision).Equal(scribbled.Decision) {
		t.Fatalf("overwriting drained bursts changed the decision: %v vs %v", scribbled.Decision, clean.Decision)
	}
	if !geometry.UniformBox(2, 0, 1).Contains(clean.Decision, 1e-9) {
		t.Fatalf("decision %v outside the input box", clean.Decision)
	}
}

// TestDrainedShardPinsNoChunk: after a burst is drained nothing the shard
// holds — instances, the inbox, the spare batch it swaps in next — reaches
// the burst's chunk, so the collector frees it. This is what run's
// clear(sh.batch) is for.
func TestDrainedShardPinsNoChunk(t *testing.T) {
	const n, id = 5, 1
	sh := detachedShard(0, n, Config{OutboxDepth: 1 << 12, QueueDepth: 256})
	openDetached(t, sh, 0, id, geometry.Vector{0.5, 0.5})

	freed := make(chan struct{})
	func() {
		chunk := make([]float64, 0, chunkFloats)
		runtime.SetFinalizer(&chunk[:1][0], func(*float64) { close(freed) })
		var burst []inMsg
		for k := 0; k < 100; k++ {
			chunk = append(chunk, 0.25, 0.75)
			v := geometry.Vector(chunk[len(chunk)-2 : len(chunk) : len(chunk)])
			// Fresh values (tallied, so copied), duplicates, a round that
			// is dropped, an instance that is tombstoned.
			burst = append(burst,
				inMsg{instance: id, from: 1 + k%4, msg: aad.Msg{Kind: aad.KindRBC,
					RBC: broadcast.RBCMsg{Phase: broadcast.RBCEcho, Origin: sim.ProcID(k % n), Tag: 1 + k%4, Value: v}}},
				inMsg{instance: id, from: 1, msg: aad.Msg{Kind: aad.KindRBC,
					RBC: broadcast.RBCMsg{Phase: broadcast.RBCReady, Origin: 2, Tag: 77, Value: v}}},
			)
		}
		sh.tombs.add(9)
		burst = append(burst, inMsg{instance: 9, from: 2, msg: burst[0].msg})
		if !sh.receive(burst) {
			t.Fatal("shard stopped")
		}
		sh.drainInbox()
		sh.flush()
	}()
	if got := sh.svc.ctr.outOfRange.Load(); got != 100 {
		t.Errorf("out-of-range rounds counted: %d, want 100", got)
	}
	defer runtime.KeepAlive(sh) // the shard outlives the chunk
	deadline := time.After(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("the drained burst's chunk is still reachable from the shard")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestLingeringInstancePinsNoSlab: an instance lingering behind a silent
// origin keeps its coordinator, and nothing the loop holds reaches a vector
// block of a broadcast slab the coordinator's RBC has released — not even
// through the coordinator's last emission, whose values alias that block.
// Each round's block is watched from the INIT this process broadcast into
// it: process 0's own value is the first slot of the block. Every schedule
// keeps link order and holds one peer's link back until the others are
// delivered; at f = 2 the held peer is not needed for the decision, so its
// INITs reach a lingering instance and the ECHO that finishes a slab is
// the last thing it emits.
func TestLingeringInstancePinsNoSlab(t *testing.T) {
	const id, schedules = 1, 8
	for _, f := range []int{1, 2} {
		cfg := testNodeConfig(4*f + 1) // the bound n = (d+2)f+1 at d = 2
		cfg.F = f
		n := cfg.N
		silent := n - 1
		rng := rand.New(rand.NewSource(43))
		inputs := make([]geometry.Vector, n)
		for i := range inputs {
			inputs[i] = geometry.Vector{rng.Float64(), rng.Float64()}
		}
		byLink := make([][]inMsg, n)
		for _, m := range peerTraffic(t, cfg, inputs, silent) {
			byLink[m.from] = append(byLink[m.from], m)
		}

		var freed atomic.Int32
		watched := 0
		loops := make([]*shard, schedules)
		for k := range loops {
			sh := detachedShard(0, n, Config{OutboxDepth: 1 << 14})
			loops[k] = sh
			// watch puts a finalizer on the block of every INIT of
			// process 0 waiting on the local FIFO, then delivers the FIFO.
			watch := func() {
				for i := range sh.local {
					if rm := &sh.local[i].msg.RBC; sh.local[i].msg.Kind == aad.KindRBC && rm.Phase == broadcast.RBCInit && rm.Origin == 0 {
						runtime.SetFinalizer(&rm.Value[0], func(*float64) { freed.Add(1) })
						watched++
					}
				}
				sh.drainLocal()
			}
			sh.svc.cfg.Node = cfg
			sh.svc.cfg.InstanceTimeout = time.Hour
			sh.svc.cfg.LingerTimeout = time.Hour
			node, err := core.NewAsyncNode(cfg, 0, inputs[0])
			if err != nil {
				t.Fatal(err)
			}
			res := make(chan Result, 1)
			sh.open(proposeReq{id: id, node: node, res: res})
			watch()
			held := 1 + k%(n-2)
			next, left := make([]int, n), 0
			for from, msgs := range byLink {
				if from != held {
					left += len(msgs)
				}
			}
			for ; left > 0; left-- {
				from := rng.Intn(n)
				for from == held || next[from] == len(byLink[from]) {
					from = (from + 1) % n
				}
				sh.deliver(&byLink[from][next[from]])
				next[from]++
				watch()
			}
			for i := range byLink[held] {
				sh.deliver(&byLink[held][i])
				watch()
			}
			sh.flush()
			if r := <-res; r.Err != nil {
				t.Fatal(r.Err)
			}
			if inst := sh.instances[id]; inst == nil || inst.state != instLingering {
				t.Fatalf("f=%d schedule %d: instance %d is not lingering", f, k, id)
			}
		}
		if want := schedules * cfg.MaxRounds; watched != want {
			t.Fatalf("f=%d: watched %d slab blocks, want one per round and schedule (%d)", f, watched, want)
		}
		deadline := time.After(2 * time.Second)
		for freed.Load() < int32(watched) {
			runtime.GC()
			select {
			case <-deadline:
				t.Fatalf("f=%d: %d of %d released slab blocks are still reachable from the lingering instances", f, int32(watched)-freed.Load(), watched)
			case <-time.After(10 * time.Millisecond):
			}
		}
		runtime.KeepAlive(loops) // the loops outlive the blocks
	}
}

// TestParkedFrameCopiesValues: a frame parked for an instance not proposed
// yet is the one thing the shard keeps from a burst, so its waiting row
// takes a copy of the vector — a stalled instance must not pin every chunk
// its frames arrived in — and the copy is what the instance replays once
// proposed.
func TestParkedFrameCopiesValues(t *testing.T) {
	const n, id = 5, 4
	sh := detachedShard(0, n, Config{})
	chunk := []float64{0.25, 0.75}
	early := inMsg{instance: id, from: 1, msg: aad.Msg{Kind: aad.KindRBC,
		RBC: broadcast.RBCMsg{Phase: broadcast.RBCInit, Origin: 1, Tag: 1, Value: chunk}}}
	sh.deliver(&early)
	sh.deliver(&inMsg{instance: id, from: 1, msg: aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{Round: 1, Origin: 1}}})
	row := sh.instances[id]
	if row == nil || row.state != instWaiting || len(row.parked) != 2 || sh.parked[1] != 2 {
		t.Fatalf("waiting row: %+v, want two parked messages charged to peer 1", row)
	}
	chunk[0], chunk[1] = -1, -1
	if got := row.parked[0].msg.RBC.Value; !got.Equal(geometry.Vector{0.25, 0.75}) {
		t.Fatalf("parked value %v follows the chunk; want a copy", got)
	}
	openDetached(t, sh, 0, id, geometry.Vector{0.5, 0.5})
	if sh.instances[id] != row || row.state != instRunning || row.parked != nil || sh.parked[1] != 0 {
		t.Fatalf("proposed row: state %v, %d parked, peer 1 charged %d; want the same row running, nothing parked", row.state, len(row.parked), sh.parked[1])
	}
	// The replayed INIT is echoed with the parked value.
	want := wire.AppendConsensus(nil, id, &wire.ConsensusMsg{Kind: wire.ConsensusRBC, Phase: uint8(broadcast.RBCEcho), Origin: 1, Round: 1, Value: []float64{0.25, 0.75}})
	got, _ := sh.svc.peers[2].out.take(nil)
	if !containsFrame(got, want) {
		t.Errorf("peer 2's outbox holds no ECHO of the parked value")
	}
}

func containsFrame(stream, frame []byte) bool {
	for len(stream) >= 4 {
		size := 4 + int(binary.BigEndian.Uint32(stream))
		if size > len(stream) {
			return false
		}
		if bytes.Equal(stream[:size], frame) {
			return true
		}
		stream = stream[size:]
	}
	return false
}

// TestChunkDecodeAllocs: decoding a burst's vectors into the reader's chunk
// costs one allocation per chunk, none per frame — zero amortised — and a
// vector keeps its storage when the chunk behind it is replaced.
func TestChunkDecodeAllocs(t *testing.T) {
	const dim = 2
	rbc := wire.AppendConsensus(nil, 1, &wire.ConsensusMsg{Kind: wire.ConsensusRBC, Phase: 2, Origin: 1, Round: 3, Value: []float64{0.5, 1.5}})
	report := wire.AppendConsensus(nil, 1, &wire.ConsensusMsg{Kind: wire.ConsensusReport, Origin: 2, Round: 3})
	_, rbcBody, _ := wire.ParseFrame(rbc[4:])
	_, reportBody, _ := wire.ParseFrame(report[4:])

	var chunk vecChunk
	var dec wire.ConsensusMsg
	var kept [][]float64
	for i := 0; i < 3*chunkFloats/dim; i++ { // crosses two chunk boundaries
		if err := chunk.decode(&dec, rbcBody, dim); err != nil {
			t.Fatal(err)
		}
		if cap(dec.Value) != dim {
			t.Fatalf("decoded vector has capacity %d: an append would run into its neighbour", cap(dec.Value))
		}
		kept = append(kept, dec.Value)
		if err := chunk.decode(&dec, reportBody, dim); err != nil || len(dec.Value) != 0 {
			t.Fatalf("report: err %v, value %v", err, dec.Value)
		}
	}
	for i, v := range kept {
		if v[0] != 0.5 || v[1] != 1.5 {
			t.Fatalf("vector %d reads %v after later decodes", i, v)
		}
		if i > 0 && &v[0] == &kept[i-1][0] {
			t.Fatalf("vectors %d and %d share storage", i-1, i)
		}
	}
	// A vector longer than a whole chunk gets storage of its own.
	long := wire.AppendConsensus(nil, 1, &wire.ConsensusMsg{Kind: wire.ConsensusRBC, Phase: 1, Value: make([]float64, chunkFloats+1)})
	_, longBody, _ := wire.ParseFrame(long[4:])
	used := len(chunk.buf)
	if err := chunk.decode(&dec, longBody, dim); err != nil || len(dec.Value) != chunkFloats+1 || len(chunk.buf) != used {
		t.Fatalf("oversized vector: err %v, len %d, chunk moved %d→%d", err, len(dec.Value), used, len(chunk.buf))
	}

	if raceflag.Enabled {
		return // allocation counts are not meaningful under -race
	}
	allocs := testing.AllocsPerRun(4*chunkFloats/dim, func() {
		if err := chunk.decode(&dec, rbcBody, dim); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("chunk decode: %v allocs per frame, want 0 amortised", allocs)
	}
}
