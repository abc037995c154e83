// Package service is the multi-tenant live consensus runtime: many
// concurrent instances of the paper's §3.2 asynchronous approximate BVC
// algorithm multiplexed over one pooled full mesh of persistent TCP
// connections. One Service is one process of the mesh; Propose opens an
// instance locally, frames carry the instance id so every process's
// traffic for all instances shares the same n−1 connections, and one
// instance loop owns every instance.
//
// The architecture — instance lifecycle, connection pool, framing,
// backpressure, drain/reconfiguration semantics, and the load-test
// workflow with cmd/bvcload — is documented in docs/SERVICE.md; the frame
// layout is docs/WIRE_FORMAT.md. The public one-shot entry point,
// bvc.RunAsyncCluster, runs single-instance services.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aad"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Service errors.
var (
	// ErrServiceClosed is returned by operations on a closed service.
	ErrServiceClosed = errors.New("service: closed")
	// ErrDraining is returned by Propose once Drain has been called.
	ErrDraining = errors.New("service: draining")
	// ErrDuplicateInstance is reported for a Propose reusing a live or
	// recently finished instance id.
	ErrDuplicateInstance = errors.New("service: duplicate instance id")
	// ErrInstanceTimeout is reported for instances that exceeded
	// Config.InstanceTimeout before deciding.
	ErrInstanceTimeout = errors.New("service: instance timed out")
)

// Config configures one service process.
type Config struct {
	// Node configures the consensus algorithm every instance runs; its N
	// must equal len(Addrs). The service delivers the result the moment
	// the instance decides and then keeps the instance lingering — still
	// serving reliable-broadcast echoes, readies, and reports — until it
	// is quiescent (every broadcast of its rounds finished here, so it can
	// never send again) or LingerTimeout passes. Lingering is what keeps
	// lagging peers live when a process crashes mid-instance: Bracha's
	// echo quorum is ⌊(n+f)/2⌋+1, which with one peer down needs every
	// survivor, including the ones that already decided.
	Node core.AsyncConfig
	// ID is this process's id, indexing Addrs.
	ID int
	// Addrs lists every process's listen address. Addrs[ID] may use port
	// 0; Addr reports the bound address.
	Addrs []string
	// OutboxDepth bounds each peer's outbox in frames (default 1024). A
	// sender finding it full blocks while the peer is connected and drops
	// the frame (Stats.WriteDrops) while it is not; see peerLink.enqueue.
	OutboxDepth int
	// QueueDepth bounds the instance loop's inbound queue in frames
	// (default 4096). A full queue blocks connection readers —
	// backpressure that propagates to remote senders through TCP. It is
	// also each peer's budget of parked frames: frames for instances not
	// yet proposed here, held until the Propose arrives; a peer's frame
	// over its budget is dropped and counted (Stats.PendingDropped). Like
	// EstablishTimeout and the dial backoffs below, it is not on
	// bvc.ServiceConfig: only tests and internal harnesses set it.
	QueueDepth int
	// InstanceTimeout fails instances that have not decided in time
	// (default 30s); parked pre-Propose frames expire on the same clock.
	InstanceTimeout time.Duration
	// LingerTimeout bounds how long a decided instance that has not yet
	// quiesced keeps serving the protocol for lagging peers before it is
	// tombstoned (default: InstanceTimeout). Total instance lifetime is
	// therefore at most InstanceTimeout + LingerTimeout.
	LingerTimeout time.Duration
	// EstablishTimeout bounds one dial attempt (default 10s); Establish
	// itself is bounded by its ctx alone.
	EstablishTimeout time.Duration
	// DialBackoff/MaxDialBackoff shape dial retry (defaults 25ms/500ms).
	// Sleeps are jittered uniform in [b/2, b] so redials desynchronize.
	DialBackoff    time.Duration
	MaxDialBackoff time.Duration
	// Seed feeds the per-link redial-jitter PRNG streams.
	Seed int64
	// Transport supplies the network surface (nil: plain TCP). The
	// fault-injection layer internal/chaos implements it.
	Transport Transport
	// AuthKey, when non-nil, enables the mutual HMAC-SHA256
	// challenge/response handshake: every connection must prove knowledge
	// of the shared key before it is installed (see auth.go). All
	// processes of a mesh must agree on the key; keyless and keyed
	// processes refuse each other.
	AuthKey []byte
	// Epoch is the membership epoch this process is born at (0 for a
	// static mesh). A replacement process joining a reconfigured mesh is
	// started with the new epoch and its address list; see Reconfigure
	// and the Membership type in epoch.go.
	Epoch uint64
}

func (c Config) withDefaults() Config {
	orDefault(&c.OutboxDepth, 1024)
	orDefault(&c.QueueDepth, 4096)
	orDefault(&c.InstanceTimeout, 30*time.Second)
	orDefault(&c.LingerTimeout, c.InstanceTimeout)
	orDefault(&c.EstablishTimeout, 10*time.Second)
	orDefault(&c.DialBackoff, 25*time.Millisecond)
	orDefault(&c.MaxDialBackoff, 500*time.Millisecond)
	if c.Transport == nil {
		c.Transport = netTransport{}
	}
	return c
}

// orDefault sets a non-positive *v to def.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Result is one finished instance as seen by this process.
type Result struct {
	// Instance is the instance id.
	Instance uint64
	// Decision is the decided vector (nil when Err is set).
	Decision []float64
	// Rounds is the instance's termination round count.
	Rounds int
	// Elapsed is the local propose-to-decision latency.
	Elapsed time.Duration
	// Err is nil on decision; ErrInstanceTimeout, ErrServiceClosed, a
	// duplicate-id error, or a protocol failure otherwise.
	Err error
}

// Service is one process of a multi-tenant consensus mesh. Construct with
// New on every process, exchange listen addresses out of band, Establish
// the mesh, then Propose instances concurrently from any goroutine.
type Service struct {
	cfg   Config
	n     int
	tr    Transport
	ln    net.Listener
	loop  *shard
	start time.Time

	// peers holds the one link per peer id (nil at this process's own
	// slot), built in New and never replaced: Reconfigure re-addresses
	// links in place. reconfigMu serializes Reconfigure. See epoch.go.
	peers      []*peerLink
	reconfigMu sync.Mutex

	ctr      counters
	draining sync.Once
	isDrain  chan struct{} // closed when draining
	drained  chan struct{} // closed when draining and active == 0
	drainMu  sync.Once

	// proposeMu fences Propose against Close: Propose holds it shared
	// while checking stop and enqueueing; Close acquires it exclusively
	// after closing stop, so every request that passed the check is in the
	// loop's channel by the time Close drains them.
	proposeMu sync.RWMutex
	stop      chan struct{}
	// dials ends with stop: every dial attempt runs under it, so Close
	// never waits out a hung dial.
	dials     context.Context
	endDials  context.CancelFunc
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
	firstErr  atomic.Pointer[error] // see Err
}

// New validates the configuration, opens the listener, and starts the
// instance loop and per-peer writers. The mesh is built by Establish.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	n := len(cfg.Addrs)
	if cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("service: id %d out of range for %d addresses", cfg.ID, n)
	}
	if cfg.Node.N != n {
		return nil, fmt.Errorf("service: consensus n=%d but %d addresses", cfg.Node.N, n)
	}
	// Validate the consensus configuration once up front so Propose
	// failures can only be per-input: build a throwaway node.
	if _, err := core.NewAsyncNode(cfg.Node, sim.ProcID(cfg.ID), probeInput(cfg.Node)); err != nil {
		return nil, fmt.Errorf("service: consensus config: %w", err)
	}
	ln, err := cfg.Transport.Listen(cfg.Addrs[cfg.ID])
	if err != nil {
		return nil, fmt.Errorf("service: listen %s: %w", cfg.Addrs[cfg.ID], err)
	}
	s := &Service{
		cfg:     cfg,
		n:       n,
		tr:      cfg.Transport,
		ln:      ln,
		start:   time.Now(),
		isDrain: make(chan struct{}),
		drained: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	s.dials, s.endDials = context.WithCancel(context.Background())
	s.ctr.epoch.Store(cfg.Epoch)
	s.peers = make([]*peerLink, n)
	for id, addr := range cfg.Addrs {
		if id != cfg.ID {
			s.peers[id] = newPeerLink(s, id, addr)
		}
	}
	s.loop = newShard(s)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	for _, p := range s.peers {
		if p != nil {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				p.writeLoop()
			}()
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.loop.run()
	}()
	return s, nil
}

// probeInput builds a valid input (the box's lower corner) for the
// construction-time configuration probe.
func probeInput(cfg core.AsyncConfig) geometry.Vector {
	v := make(geometry.Vector, cfg.D)
	lo := cfg.Bounds.Lo
	for i := range v {
		if i < len(lo) {
			v[i] = lo[i]
		}
	}
	return v
}

// Addr returns the bound listen address (useful with port 0).
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Err returns the first structural error the service observed (accept
// failures, protocol-type mismatches on the send path); nil while
// healthy. Peer disconnects, reconnects, and malformed inbound frames
// are not errors here — the latter are peer-attributable faults counted
// in Stats.ReadErrors.
func (s *Service) Err() error {
	if err := s.firstErr.Load(); err != nil {
		return *err
	}
	return nil
}

// noteErr records err unless an earlier error is recorded.
func (s *Service) noteErr(err error) { s.firstErr.CompareAndSwap(nil, &err) }

// Propose opens consensus instance id with this process's input. Every
// process of the mesh must eventually propose the same instance id (their
// traffic is parked briefly otherwise). The result — decision or error
// — is delivered exactly once on the returned channel. An instance in
// flight across a Reconfigure keeps deciding: its frames go to whichever
// address each peer's link holds when they are written. The input is
// copied.
func (s *Service) Propose(id uint64, input []float64) (<-chan Result, error) {
	if stopping(s) {
		return nil, ErrServiceClosed
	}
	if closed(s.isDrain) {
		return nil, ErrDraining
	}
	node, err := core.NewAsyncNode(s.cfg.Node, sim.ProcID(s.cfg.ID), input)
	if err != nil {
		return nil, fmt.Errorf("service: instance %d: %w", id, err)
	}
	res := make(chan Result, 1)
	s.proposeMu.RLock()
	defer s.proposeMu.RUnlock()
	if stopping(s) {
		return nil, ErrServiceClosed
	}
	req := proposeReq{id: id, node: node, res: res}
	// Counted active from here, not from when the loop opens it, so a
	// Drain called right after Propose returns waits for it.
	s.ctr.active.Add(1)
	select {
	case s.loop.propose <- req:
	case <-s.stop:
		s.ctr.active.Add(-1)
		return nil, ErrServiceClosed
	}
	return res, nil
}

// Drain gracefully winds the service down: new proposals are refused, a
// goodbye frame tells every peer to stop redialing this process, and Drain returns once every in-flight
// instance has finished (decided, failed, or timed out) or ctx expires.
// For replacing or re-addressing members without stopping the service,
// use Reconfigure instead (see docs/SERVICE.md).
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Do(func() {
		close(s.isDrain)
		goodbye := wire.AppendGoodbye(nil)
		for _, p := range s.peers {
			if p != nil && p.enqueue(goodbye, nil) {
				p.out.ring()
			}
		}
	})
	s.checkDrained()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w (%d instances still active)", ctx.Err(), s.ctr.active.Load())
	case <-s.stop:
		return ErrServiceClosed
	}
}

// checkDrained closes the drained latch once draining with no active
// instances; called after every instance retirement and by Drain itself.
func (s *Service) checkDrained() {
	if closed(s.isDrain) && s.ctr.active.Load() == 0 {
		s.drainMu.Do(func() { close(s.drained) })
	}
}

// Close releases the listener, connections, and goroutines. In-flight
// instances fail with ErrServiceClosed; use Drain first for a graceful
// stop.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.endDials()
		s.proposeMu.Lock() // barrier: no Propose is mid-enqueue past here
		s.proposeMu.Unlock()
		err := s.ln.Close()
		for _, p := range s.peers {
			if p != nil {
				p.fire(linkClose)
			}
		}
		s.loop.in.kick() // readers blocked on a full inbox see stop
		s.wg.Wait()
		// The loop is gone and no Propose can enqueue: answer what is left.
		for len(s.loop.propose) > 0 {
			req := <-s.loop.propose
			s.loop.finish(&instance{id: req.id, res: req.res}, instClosed)
		}
		if err != nil && !errors.Is(err, net.ErrClosed) {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// inMsg is one routed consensus delivery.
type inMsg struct {
	instance uint64
	from     int
	msg      aad.Msg
}

// proposeReq opens an instance on the instance loop.
type proposeReq struct {
	id   uint64
	node *core.AsyncNode
	res  chan Result
}

// localMsg is a self-send awaiting delivery on the loop's local FIFO.
type localMsg struct {
	inst *instance
	msg  aad.Msg
}

// instance is one consensus instance owned by the loop. Until proposed here
// it waits, holding only the frames peers sent for it. Once decided it
// lingers: the result has been delivered, and the instance keeps serving
// the exchange for lagging peers until it is quiescent or its deadline,
// reset to the linger window at the decision, passes, whichever is first.
// A lingering instance keeps only what it can still send with: node and
// res are dropped at the decision, and coord — the node's exchange
// coordinator, handed back by AsyncNode.Linger — is stepped directly.
type instance struct {
	id       uint64
	state    instState
	node     *core.AsyncNode  // nil while waiting and once lingering
	coord    *aad.Coordinator // set once lingering
	res      chan Result      // nil while waiting and once lingering
	parked   []inMsg          // while waiting: peers' frames, in arrival order
	started  time.Time
	deadline time.Time // to be proposed by; to decide by; once lingering, to linger until
}

// instState is where an instance is in its life (docs/SERVICE.md,
// "Instance lifecycle", draws instEdges). Running is the zero state: the
// never-opened instances finish answers (refused, left at Close) are bare.
type instState uint8

const (
	instRunning   instState = iota // its node runs the protocol; no result yet
	instLingering                  // decided and delivered; its coordinator serves lagging peers
	instEnded                      // delivered and off the loop
	instWaiting                    // peers' frames arrived before the local Propose; they are parked
)

// instEvent is one of finish's outcomes or tombstone's reasons.
type instEvent uint8

const (
	instDecided  instEvent = iota // the node decided
	instFailed                    // the node failed
	instTimedOut                  // InstanceTimeout passed undecided
	instClosed                    // the service closed first
	instRefused                   // the id was live or tombstoned: a proposal answered without opening
	instQuiesced                  // every broadcast of its rounds finished here
	instExpired                   // the linger window closed, or a waiting row's deadline passed
	instProposed                  // the local Propose arrived
)

// instEdges is the instance transition table, one row per state; an event
// missing from a row is refused.
var instEdges = [...]map[instEvent]instState{
	instRunning:   {instDecided: instLingering, instFailed: instEnded, instTimedOut: instEnded, instClosed: instEnded, instRefused: instEnded},
	instLingering: {instQuiesced: instEnded, instExpired: instEnded},
	instEnded:     {},
	instWaiting:   {instProposed: instRunning, instExpired: instEnded},
}

// move takes inst along edge ev of instEdges, the only writer of state; it
// returns false, changing nothing, for an edge the table lacks.
func (inst *instance) move(ev instEvent) bool {
	next, ok := instEdges[inst.state][ev]
	if ok {
		inst.state = next
	}
	return ok
}

// shard is the service's instance loop, one per process, and owns every
// instance: its goroutine is the only one that touches them, so node
// callbacks are serial per instance by construction. Being the one
// producer of consensus frames, it leaves each link's frames of a wake-up
// to one ring of the link's writer.
type shard struct {
	svc     *Service
	propose chan proposeReq

	// in is the inbound queue, bounded at QueueDepth frames: connection
	// readers append bursts, run swaps it for batch and delivers that.
	in    *mailbox[inMsg]
	batch []inMsg

	local     []localMsg
	instances map[uint64]*instance
	tombs     tombSet
	parked    []int // per peer, the frames waiting rows hold; at QueueDepth it parks no more

	// Sender side. A frame is encoded once into frame and copied into the
	// outbox of each peer it goes to; rung collects the links whose writer
	// this wake-up owes a ring, and flush pays them.
	enc   wire.ConsensusMsg
	frame []byte
	rung  []*peerLink
}

func newShard(s *Service) *shard {
	return &shard{
		svc:       s,
		propose:   make(chan proposeReq, 16),
		in:        newMailbox[inMsg](s.cfg.QueueDepth),
		instances: make(map[uint64]*instance),
		tombs:     newTombSet(2*s.cfg.InstanceTimeout, time.Now()),
		parked:    make([]int, len(s.peers)),
	}
}

// receive queues a reader's burst for the loop, blocking while the inbox
// is at QueueDepth — backpressure that reaches the remote sender through
// TCP. It reports false when the service stopped first.
func (sh *shard) receive(msgs []inMsg) bool {
	n, ring := sh.in.put(msgs, len(msgs), sh.running)
	if ring {
		sh.in.ring()
	}
	return n == len(msgs)
}

// running holds until the service stops; readers wait on a full inbox
// while it does.
func (sh *shard) running() bool { return !stopping(sh.svc) }

// flush rings the writer of every link this wake-up queued the first
// frame on. It runs when the wake-up ends, so each writer finds everything
// the wake-up produced for its peer and sends it with one Write, and no
// frame waits on anything but the step that emitted it.
func (sh *shard) flush() {
	for i, p := range sh.rung {
		p.out.ring()
		sh.rung[i] = nil
	}
	sh.rung = sh.rung[:0]
}

// tick is the loop's housekeeping cadence: instance expiry, tombstone GC.
const tick = 20 * time.Millisecond

func (sh *shard) run() {
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-sh.in.bell:
			sh.drainInbox()
		case req := <-sh.propose:
			sh.open(req)
		case <-ticker.C:
			sh.expire(time.Now())
		case <-sh.svc.stop:
			for _, inst := range sh.instances {
				sh.finish(inst, instClosed) // refused for a lingering or waiting one: no result is owed
			}
			return
		}
		sh.drainLocal()
		sh.flush()
	}
}

// drainInbox swaps the inbox for the previous, finished batch and steps
// every delivery through, each followed by the self-sends it caused.
func (sh *shard) drainInbox() {
	sh.batch, _ = sh.in.take(sh.batch)
	for i := range sh.batch {
		sh.deliver(&sh.batch[i])
		sh.drainLocal()
	}
	clear(sh.batch) // the spare must not pin burst chunks
}

// drainLocal delivers queued self-sends; deliveries may enqueue more, so
// the FIFO is walked by index and reset once empty — popping from the
// front would abandon the backing array to the appends behind it.
func (sh *shard) drainLocal() {
	for i := 0; i < len(sh.local); i++ {
		l := sh.local[i]
		sh.local[i] = localMsg{}
		if l.inst.state == instEnded {
			continue // instance ended while the self-send waited
		}
		sh.step(l.inst, sh.svc.cfg.ID, &l.msg)
	}
	if cap(sh.local) > 1024 {
		sh.local = nil // don't let a burst pin a large backing array
	} else {
		sh.local = sh.local[:0]
	}
}

// deliver routes one network delivery to its instance, or parks it in the
// instance's waiting row when the local Propose has not arrived yet,
// charged to its sender. m's vector lives in its reader's burst chunk: a
// step reads it (the exchange copies a value it has not seen into its own
// tables), and only a waiting row keeps the message.
func (sh *shard) deliver(m *inMsg) {
	inst := sh.instances[m.instance]
	if inst != nil && inst.state != instWaiting {
		sh.step(inst, m.from, &m.msg)
		return
	}
	if inst == nil && sh.tombs.has(m.instance) {
		return // finished here; peers catching up need nothing from us
	}
	// Parked even while draining: a Propose accepted before it may still be
	// queued. Over budget the frame is dropped, not waited on: a held reader
	// would also hold its sender's frames for instances open here.
	if sh.parked[m.from] >= sh.svc.cfg.QueueDepth {
		sh.svc.ctr.pendingDropped.Add(1)
		return
	}
	if inst == nil {
		inst = &instance{id: m.instance, state: instWaiting, deadline: time.Now().Add(sh.svc.cfg.InstanceTimeout)}
		sh.instances[m.instance] = inst
	}
	// Copied, so an instance that is never proposed pins a few vectors
	// until its deadline, not every chunk they arrived in.
	kept := *m
	kept.msg.RBC.Value = kept.msg.RBC.Value.Clone()
	inst.parked = append(inst.parked, kept)
	sh.parked[m.from]++
	sh.svc.ctr.pendingFrames.Add(1)
}

// unpark takes a waiting row's frames off it and off their senders'
// budgets, and returns them.
func (sh *shard) unpark(inst *instance) []inMsg {
	msgs := inst.parked
	inst.parked = nil
	for i := range msgs {
		sh.parked[msgs[i].from]--
	}
	sh.svc.ctr.pendingFrames.Add(-int64(len(msgs)))
	return msgs
}

// open starts an instance: its row moves to running, the node inits (round
// 1 broadcasts), then the frames parked ahead of the proposal replay.
func (sh *shard) open(req proposeReq) {
	inst := sh.instances[req.id]
	if inst == nil && !sh.tombs.has(req.id) {
		inst = &instance{id: req.id, state: instWaiting}
		sh.instances[req.id] = inst
	}
	// Instance ids are global across epochs: a live or tombstoned id is
	// refused even after a Reconfigure — peers route frames by id alone,
	// so reuse would conflate instances.
	if inst == nil || !inst.move(instProposed) {
		sh.finish(&instance{id: req.id, res: req.res}, instRefused)
		return
	}
	now := time.Now()
	inst.node, inst.res = req.node, req.res
	inst.started, inst.deadline = now, now.Add(sh.svc.cfg.InstanceTimeout)
	sh.svc.ctr.proposed.Add(1)

	parked := sh.unpark(inst)
	sh.afterStep(inst, inst.node.Start())
	for i := range parked {
		if inst.state == instEnded {
			break // failed mid-replay
		}
		sh.step(inst, parked[i].from, &parked[i].msg)
	}
}

// step feeds one message to the instance's protocol and acts on what it
// reports. A lingering instance's coordinator is stepped as its node's
// Step would: what it emits goes out, a dropped round counts as out of
// range, and the step that makes it quiescent tombstones it.
func (sh *shard) step(inst *instance, from int, m *aad.Msg) {
	if inst.state == instRunning {
		sh.afterStep(inst, inst.node.Step(sim.ProcID(from), m))
		return
	}
	dropped := inst.coord.Dropped()
	out, _ := inst.coord.Handle(sim.ProcID(from), *m)
	if inst.coord.Dropped() != dropped {
		sh.svc.ctr.outOfRange.Add(1)
		return
	}
	for i := range out {
		sh.broadcast(inst, &out[i])
	}
	// out is the coordinator's scratch, kept until its next Handle: cleared,
	// the last emission stops pinning the slab its values alias, which the
	// broadcast may release meanwhile.
	clear(out)
	if inst.coord.Quiescent() {
		sh.tombstone(inst, instQuiesced)
	}
}

// afterStep sends what the node's step left in its outbox and finishes
// the instance when the node failed or decided.
func (sh *shard) afterStep(inst *instance, st core.StepStatus) {
	out := inst.node.Outbox()
	for i := range out {
		sh.broadcast(inst, &out[i])
	}
	switch st {
	case core.StepOutOfRange:
		sh.svc.ctr.outOfRange.Add(1)
	case core.StepFailed:
		sh.finish(inst, instFailed)
	case core.StepDecided:
		sh.finish(inst, instDecided)
	}
}

// broadcast is one message of inst to the complete graph: encoded once into
// the loop's frame scratch, the same bytes copied into every peer's
// outbox, and looped back to this process through the local FIFO (pushing
// to our own bounded inbox from the loop goroutine could deadlock). A
// writer's ring is deferred to the end of the loop's wake-up.
func (sh *shard) broadcast(inst *instance, m *aad.Msg) {
	if err := toWire(m, &sh.enc); err != nil {
		sh.svc.noteErr(err)
		return
	}
	sh.frame = wire.AppendConsensus(sh.frame[:0], inst.id, &sh.enc)
	sh.enc.Value = nil // it aliases the broadcast's slab, which may go
	for _, p := range sh.svc.peers {
		if p == nil { // our own slot
			sh.local = append(sh.local, localMsg{inst: inst, msg: *m})
			continue
		}
		if p.enqueue(sh.frame, sh.flush) {
			sh.rung = append(sh.rung, p)
		}
	}
}

// finish ends a running instance with outcome ev (decided, failed, timed
// out, closed, or refused: a duplicate id, never registered), delivers its
// one result, counts the outcome and takes it off ActiveInstances. A
// failed or timed-out instance is tombstoned; a decided one lingers,
// serving lagging peers through its coordinator alone, until it is
// quiescent (possibly at once: a quiescent node answers nothing, so
// dropping it changes no message) or its linger window closes.
func (sh *shard) finish(inst *instance, ev instEvent) {
	if !inst.move(ev) {
		return
	}
	ctr := &sh.svc.ctr
	res := Result{Instance: inst.id, Err: ErrServiceClosed}
	switch ev {
	case instDecided, instFailed:
		res.Decision, res.Err = inst.node.Decision()
		res.Rounds, res.Elapsed = inst.node.Rounds(), time.Since(inst.started)
		if ev == instFailed {
			ctr.failed.Add(1)
		} else {
			ctr.decided.Add(1)
			ctr.lingering.Add(1)
		}
	case instTimedOut:
		res.Elapsed, res.Err = time.Since(inst.started), ErrInstanceTimeout
		ctr.timedOut.Add(1)
	case instRefused:
		res.Err = ErrDuplicateInstance
	}
	if ev == instFailed || ev == instTimedOut {
		delete(sh.instances, inst.id)
		sh.tombs.add(inst.id)
	}
	inst.res <- res
	ctr.active.Add(-1)
	if ev != instClosed { // a closed service never counts as drained
		sh.svc.checkDrained()
	}
	if ev == instDecided {
		inst.deadline = time.Now().Add(sh.svc.cfg.LingerTimeout)
		inst.coord = inst.node.Linger()
		inst.node, inst.res = nil, nil
		if inst.coord.Quiescent() {
			sh.tombstone(inst, instQuiesced)
		}
	}
}

// tombstone ends a lingering instance, quiesced or expired: it leaves the
// loop and its id is refused from now on.
func (sh *shard) tombstone(inst *instance, ev instEvent) {
	if !inst.move(ev) {
		return
	}
	delete(sh.instances, inst.id)
	sh.tombs.add(inst.id)
	sh.svc.ctr.lingering.Add(-1)
	if ev == instQuiesced {
		sh.svc.ctr.quiesced.Add(1)
	}
}

// expire enforces deadlines — times out running instances, tombstones
// lingering ones that never quiesced (behind a crashed origin, say), drops
// waiting rows, leaving their ids open — and collects tombstone generations.
func (sh *shard) expire(now time.Time) {
	for _, inst := range sh.instances {
		switch {
		case !now.After(inst.deadline):
		case inst.state == instRunning:
			sh.finish(inst, instTimedOut)
		case inst.state == instLingering:
			sh.tombstone(inst, instExpired)
		case inst.move(instExpired):
			delete(sh.instances, inst.id)
			sh.svc.ctr.pendingDropped.Add(int64(len(sh.unpark(inst))))
		}
	}
	sh.tombs.expire(now)
}
