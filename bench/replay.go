package main

import (
	"fmt"
	"math/rand"
	"time"

	bvc "repro"
	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/safearea"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The replay pushes live instances through a benchmark-owned,
// single-threaded, in-memory mesh: n core.AsyncNodes behind this file's
// sim.API, every message to another process flattened to a
// wire.ConsensusMsg, encoded, parsed and decoded before delivery — the
// work a live instance does in core, aad, broadcast and wire, without the
// sockets, goroutine hand-offs and scheduler the service adds. One span is
// recorded per core step, wire encode and wire decode.

// envelope is one queued delivery: a frame off the "wire", or a message a
// node sent to itself (the service loops those through a local FIFO
// without encoding them, and so does the replay).
type envelope struct {
	from, to sim.ProcID
	frame    []byte // nil: a self-send, carried as local
	local    aad.Msg
}

type replayNet struct {
	nodes []*core.AsyncNode // nil: crashed
	apis  []replayAPI
	queue []envelope
	rec   *recorder
	inst  uint64
	arena []byte // backing store of this instance's frames
	enc   wire.ConsensusMsg
	dec   wire.ConsensusMsg

	frames, bytes, steps int
}

// replayAPI is the capability surface one replayed node sees.
type replayAPI struct {
	net  *replayNet
	id   sim.ProcID
	rng  *rand.Rand
	step int32 // span of the callback in progress: parent of its encodes
}

var _ sim.API = (*replayAPI)(nil)

func (a *replayAPI) ID() sim.ProcID     { return a.id }
func (a *replayAPI) N() int             { return len(a.net.nodes) }
func (a *replayAPI) Halt()              {}
func (a *replayAPI) Rand() *rand.Rand   { return a.rng }
func (a *replayAPI) Now() time.Duration { return 0 }

func (a *replayAPI) Broadcast(msg sim.Message) {
	for to := range a.net.nodes {
		a.Send(sim.ProcID(to), msg)
	}
}

func (a *replayAPI) Send(to sim.ProcID, msg sim.Message) {
	net := a.net
	m := msg.(aad.Msg) // AsyncNode sends nothing else
	if to == a.id {
		net.queue = append(net.queue, envelope{from: a.id, to: to, local: m})
		return
	}
	sp := net.rec.begin("wire.encode", a.step, net.inst)
	flatten(m, &net.enc)
	at := len(net.arena)
	net.arena = wire.AppendConsensus(net.arena, net.inst, &net.enc)
	net.rec.end(sp)
	net.frames++
	net.bytes += len(net.arena) - at
	// The live service encodes a frame for a crashed peer too, then drops it.
	if net.nodes[to] != nil {
		net.queue = append(net.queue, envelope{from: a.id, to: to, frame: net.arena[at:len(net.arena):len(net.arena)]})
	}
}

// flatten and rebuild mirror the service's codec between aad.Msg and the
// wire form.
func flatten(m aad.Msg, w *wire.ConsensusMsg) {
	if m.Kind == aad.KindRBC {
		*w = wire.ConsensusMsg{Kind: wire.ConsensusRBC, Phase: uint8(m.RBC.Phase),
			Origin: uint32(m.RBC.Origin), Round: uint32(m.RBC.Tag), Value: m.RBC.Value}
		return
	}
	*w = wire.ConsensusMsg{Kind: wire.ConsensusReport, Origin: uint32(m.Report.Origin), Round: uint32(m.Report.Round)}
}

func rebuild(w *wire.ConsensusMsg) aad.Msg {
	if w.Kind == wire.ConsensusRBC {
		// The RBC state machine retains delivered values; w.Value is the
		// decoder's reusable buffer.
		val := append(geometry.Vector(nil), w.Value...)
		return aad.Msg{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{
			Phase: broadcast.RBCPhase(w.Phase), Origin: sim.ProcID(w.Origin), Tag: int(w.Round), Value: val}}
	}
	return aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{Round: int(w.Round), Origin: sim.ProcID(w.Origin)}}
}

func asyncConfig() core.AsyncConfig {
	cfg := liveConfig()
	return core.AsyncConfig{
		Params: core.Params{
			N: cfg.N, F: cfg.F, D: cfg.D,
			Epsilon: cfg.Epsilon,
			Bounds:  geometry.UniformBox(cfg.D, cfg.Lo[0], cfg.Hi[0]),
			Method:  safearea.MethodAuto,
		},
		MaxRounds: cfg.MaxRounds,
	}
}

// replayInstance runs one instance to quiescence and returns the inputs
// proposed and the decisions reached, for the caller to check.
func (net *replayNet) replayInstance(id uint64, inputs []bvc.Vector, crashed int) (proposed, decisions []bvc.Vector, err error) {
	acfg := asyncConfig()
	net.inst = id
	net.queue, net.arena = net.queue[:0], net.arena[:0]
	root := net.rec.begin("replay.instance", -1, id)
	for p := range net.nodes {
		net.nodes[p] = nil
		if p == crashed {
			continue
		}
		node, err := core.NewAsyncNode(acfg, sim.ProcID(p), geometry.Vector(inputs[p]))
		if err != nil {
			return nil, nil, err
		}
		net.nodes[p] = node
		net.apis[p] = replayAPI{net: net, id: sim.ProcID(p), rng: rand.New(rand.NewSource(int64(id)*int64(len(net.nodes)) + int64(p)))}
		proposed = append(proposed, inputs[p])
	}
	for p, node := range net.nodes {
		if node == nil {
			continue
		}
		api := &net.apis[p]
		api.step = net.rec.begin("core.init", root, id)
		node.Init(api)
		net.rec.end(api.step)
	}
	// The queue grows while it is walked; queue[i] is re-read each turn.
	for i := 0; i < len(net.queue); i++ {
		ev := net.queue[i]
		msg := ev.local
		if ev.frame != nil {
			sp := net.rec.begin("wire.decode", root, id)
			_, body, err := wire.ParseFrame(ev.frame[4:]) // past the length prefix
			if err == nil {
				err = wire.DecodeConsensus(&net.dec, body)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("replay: instance %d: %w", id, err)
			}
			msg = rebuild(&net.dec)
			net.rec.end(sp)
		}
		api := &net.apis[ev.to]
		api.step = net.rec.begin("core.step", root, id)
		net.nodes[ev.to].OnMessage(api, ev.from, msg)
		net.rec.end(api.step)
		net.steps++
	}
	net.rec.end(root)

	for p, node := range net.nodes {
		if node == nil {
			continue
		}
		dec, err := node.Decision()
		if err != nil {
			return nil, nil, fmt.Errorf("replay: instance %d process %d: %w", id, p, err)
		}
		decisions = append(decisions, bvc.Vector(dec))
	}
	return proposed, decisions, nil
}

// replayStats is one pass over the replayed instances.
type replayStats struct {
	wall                 time.Duration
	frames, bytes, steps int
}

// replay runs replayInstances instances drawn from the run's seed through
// the in-memory mesh, recording spans into rec (nil: no spans), and checks
// every decision exactly as the live run's are checked.
func replay(w *workload, seed int64, rec *recorder) (replayStats, error) {
	cfg := liveConfig()
	net := &replayNet{nodes: make([]*core.AsyncNode, cfg.N), apis: make([]replayAPI, cfg.N), rec: rec}
	crashed := -1
	if w.live {
		crashed = w.crashed
	}
	type outcome struct{ proposed, decisions []bvc.Vector }
	outcomes := make([]outcome, replayInstances)
	t0 := time.Now()
	for k := range outcomes {
		id := uint64(k + 1)
		proposed, decisions, err := net.replayInstance(id, liveInputs(seed, id, cfg.N, cfg.D), crashed)
		if err != nil {
			return replayStats{}, err
		}
		outcomes[k] = outcome{proposed, decisions}
	}
	st := replayStats{
		wall:   time.Since(t0),
		frames: net.frames, bytes: net.bytes, steps: net.steps,
	}
	for k, o := range outcomes {
		if err := checkInstance(o.proposed, o.decisions); err != nil {
			return replayStats{}, fmt.Errorf("replay: instance %d: %w", k+1, err)
		}
	}
	return st, nil
}
