// Package service is the multi-tenant live consensus runtime: many
// concurrent instances of the paper's §3.2 asynchronous approximate BVC
// algorithm multiplexed over one pooled full mesh of persistent TCP
// connections. One Service is one process of the mesh; Propose opens an
// instance locally, frames carry the instance id so every process's
// traffic for all instances shares the same n−1 connections, and
// instances are sharded across a goroutine pool by instance id.
//
// The architecture — instance lifecycle, connection pool, framing,
// backpressure and slow-peer policy, drain/reconfiguration semantics, and
// the load-test workflow with cmd/bvcload — is documented in
// docs/SERVICE.md; the frame layout is docs/WIRE_FORMAT.md. The public
// one-shot entry points (bvc.TCPProcess, bvc.RunAsyncCluster) are
// single-instance services.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
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

// Policy selects the slow-peer behavior when a peer's outbox is full.
type Policy int

// Slow-peer policies.
const (
	// BlockSlowPeer blocks the sender until the outbox drains:
	// backpressure propagates to the shard and ultimately to Propose.
	// This preserves the paper's reliable-channel model.
	BlockSlowPeer Policy = iota
	// ShedSlowPeer drops the frame and counts it (Stats.SlowPeerSheds).
	// To the protocols the slow peer then looks (partially) crashed,
	// which they tolerate for up to f peers; sheds beyond that can stall
	// instances until their timeout.
	ShedSlowPeer
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
	// Shards is the instance-shard goroutine count (default
	// min(GOMAXPROCS, 4)); instance id modulo Shards picks the shard.
	Shards int
	// OutboxDepth bounds each peer's outbox in frames (default 1024).
	OutboxDepth int
	// QueueDepth bounds each shard's inbound queue in frames (default
	// 4096). A full queue blocks connection readers — backpressure that
	// propagates to remote senders through TCP. Like PendingLimit,
	// EstablishTimeout and the dial backoffs below, it is not on
	// bvc.ServiceConfig: only tests and internal harnesses set it.
	QueueDepth int
	// PendingLimit bounds the frames buffered per instance that remote
	// peers started before the local Propose arrived (default 4096);
	// overflow is dropped and counted.
	PendingLimit int
	// SlowPeer selects the full-outbox policy (default BlockSlowPeer).
	SlowPeer Policy
	// InstanceTimeout fails instances that have not decided in time
	// (default 30s); buffered pre-Propose frames expire on the same
	// clock.
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
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 4 {
			c.Shards = 4
		}
	}
	if c.OutboxDepth <= 0 {
		c.OutboxDepth = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.PendingLimit <= 0 {
		c.PendingLimit = 4096
	}
	if c.InstanceTimeout <= 0 {
		c.InstanceTimeout = 30 * time.Second
	}
	if c.LingerTimeout <= 0 {
		c.LingerTimeout = c.InstanceTimeout
	}
	if c.EstablishTimeout <= 0 {
		c.EstablishTimeout = 10 * time.Second
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 25 * time.Millisecond
	}
	if c.MaxDialBackoff <= 0 {
		c.MaxDialBackoff = 500 * time.Millisecond
	}
	if c.Transport == nil {
		c.Transport = netTransport{}
	}
	return c
}

// Result is one finished instance as seen by this process.
type Result struct {
	// Instance is the instance id.
	Instance uint64
	// Epoch is the membership epoch the instance was pinned to at
	// Propose time; it decided (or failed) on that epoch's link set.
	Epoch uint64
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
	cfg    Config
	n      int
	tr     Transport
	ln     net.Listener
	shards []*shard
	start  time.Time

	// meshMu guards the membership clock: cur is the mesh new proposals
	// pin, meshes holds every epoch still referenced by a pinned
	// instance (plus the current one). See epoch.go.
	meshMu sync.Mutex
	cur    *mesh
	meshes map[uint64]*mesh

	ctr      counters
	draining sync.Once
	isDrain  chan struct{} // closed when draining
	drained  chan struct{} // closed when draining and active == 0
	drainMu  sync.Once

	// proposeMu fences Propose against Close: Propose holds it shared
	// while checking stop and enqueueing; Close acquires it exclusively
	// after closing stop, so every request that passed the check is in a
	// shard channel by the time Close drains them.
	proposeMu sync.RWMutex
	stop      chan struct{}
	// dials ends with stop: every dial attempt runs under it, so Close
	// never waits out a hung dial.
	dials     context.Context
	endDials  context.CancelFunc
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// New validates the configuration, opens the listener, and starts the
// shard pool and per-peer writers. The mesh is built by Establish.
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
		shards:  make([]*shard, cfg.Shards),
		start:   time.Now(),
		isDrain: make(chan struct{}),
		drained: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	s.dials, s.endDials = context.WithCancel(context.Background())
	s.ctr.epoch.Store(cfg.Epoch)
	birth := &mesh{
		epoch: cfg.Epoch,
		addrs: append([]string(nil), cfg.Addrs...),
		peers: make([]*peerLink, n),
	}
	for id, addr := range cfg.Addrs {
		if id == cfg.ID {
			continue
		}
		birth.peers[id] = newPeerLink(s, id, addr)
	}
	s.cur = birth
	s.meshes = map[uint64]*mesh{cfg.Epoch: birth}
	for i := range s.shards {
		s.shards[i] = newShard(s, i)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	for _, p := range birth.peers {
		if p != nil {
			s.startLink(p)
		}
	}
	for _, sh := range s.shards {
		sh := sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sh.run()
		}()
	}
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

// reachable counts the processes of mesh m this one can currently count
// on for quorum: itself plus every peer with an installed, unsuspected
// connection on that epoch's link set.
func (s *Service) reachable(m *mesh) int {
	count := 1
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		up := p.conn != nil && p.pressure < pressureSuspectAfter
		p.mu.Unlock()
		if up {
			count++
		}
	}
	return count
}

// Err returns the first structural error the service observed (accept
// failures, protocol-type mismatches on the send path); nil while
// healthy. Peer disconnects, reconnects, and malformed inbound frames
// are not errors here — the latter are peer-attributable faults counted
// in Stats.ReadErrors.
func (s *Service) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

func (s *Service) noteErr(err error) {
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

func (s *Service) shardFor(instance uint64) *shard {
	return s.shards[instance%uint64(len(s.shards))]
}

func (s *Service) drainingNow() bool {
	select {
	case <-s.isDrain:
		return true
	default:
		return false
	}
}

// Propose opens consensus instance id with this process's input. Every
// process of the mesh must eventually propose the same instance id (their
// traffic is buffered briefly otherwise). The result — decision or error
// — is delivered exactly once on the returned channel.
//
// The instance is pinned to the membership epoch current at this call:
// it runs to decision on that epoch's link set even if the mesh is
// reconfigured while it is in flight. A Propose racing a Reconfigure
// therefore lands on exactly one epoch — whichever the membership clock
// showed when the pin was taken. The input is copied.
func (s *Service) Propose(id uint64, input []float64) (<-chan Result, error) {
	if stopping(s) {
		return nil, ErrServiceClosed
	}
	if s.drainingNow() {
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
	req := proposeReq{id: id, node: node, res: res, mesh: s.acquireCurrent()}
	// Counted active from here, not from when the shard opens it, so a
	// Drain called right after Propose returns waits for it.
	s.ctr.active.Add(1)
	select {
	case s.shardFor(id).propose <- req:
	case <-s.stop:
		s.ctr.active.Add(-1)
		s.releaseMesh(req.mesh)
		return nil, ErrServiceClosed
	}
	return res, nil
}

// Drain gracefully winds the service down: new proposals are refused, a
// goodbye frame tells every peer (on every held epoch's links) to stop
// redialing this process, and Drain returns once every in-flight
// instance has finished (decided, failed, or timed out) or ctx expires.
// For replacing or re-addressing members without stopping the service,
// use Reconfigure instead (see docs/SERVICE.md).
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Do(func() {
		close(s.isDrain)
		goodbye := wire.AppendGoodbye(nil)
		for _, p := range s.allLinks() {
			p.send(goodbye)
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
	if s.drainingNow() && s.ctr.active.Load() == 0 {
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
		for _, p := range s.allLinks() {
			p.stop()
		}
		for _, sh := range s.shards {
			sh.in.kick() // readers blocked on a full inbox see stop
		}
		s.wg.Wait()
		// The shards are gone; answer any requests still in their inboxes.
		for _, sh := range s.shards {
		drain:
			for {
				select {
				case req := <-sh.propose:
					req.res <- Result{Instance: req.id, Epoch: req.mesh.epoch, Err: ErrServiceClosed}
					s.ctr.active.Add(-1)
					s.releaseMesh(req.mesh)
				default:
					break drain
				}
			}
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

// proposeReq opens an instance on its shard, carrying the mesh pin
// taken at Propose time.
type proposeReq struct {
	id   uint64
	node *core.AsyncNode
	res  chan Result
	mesh *mesh
}

// localMsg is a self-send awaiting delivery on the shard's local FIFO.
type localMsg struct {
	inst *instance
	msg  aad.Msg
}

// instance is one open consensus instance owned by a shard. After done it
// lingers: the result has been delivered, but the node keeps serving the
// exchange for lagging peers until it is quiescent or lingerUntil passes,
// whichever is first. mesh is the epoch pin:
// every send goes out on the birth epoch's link set, and the pin is
// released (possibly retiring that epoch) when the instance tombstones.
type instance struct {
	id            uint64
	node          *core.AsyncNode
	res           chan Result
	mesh          *mesh
	started       time.Time
	deadline      time.Time
	done          bool
	lingerUntil   time.Time
	lingerExtends int // partition-aware extensions granted so far
}

// pendingBox buffers frames for an instance peers started before the
// local Propose arrived.
type pendingBox struct {
	since time.Time
	msgs  []inMsg
}

// shard owns a partition of the instance space: its goroutine is the only
// one that touches its instances, so node callbacks are serial per
// instance by construction.
type shard struct {
	svc     *Service
	idx     int
	propose chan proposeReq

	// in is the inbound queue, bounded at QueueDepth frames: connection
	// readers append bursts, run swaps it for batch and delivers that.
	in    *mailbox[inMsg]
	batch []inMsg

	local     []localMsg
	instances map[uint64]*instance
	pending   map[uint64]*pendingBox
	tombs     tombSet

	// Sender side. A frame is encoded once into frame and copied into the
	// outbox of each peer it goes to; rung collects the links whose writer
	// this wake-up owes a ring, and flush pays them.
	enc   wire.ConsensusMsg
	frame []byte
	rung  []*peerLink
}

func newShard(s *Service, idx int) *shard {
	return &shard{
		svc:       s,
		idx:       idx,
		propose:   make(chan proposeReq, 16),
		in:        newMailbox[inMsg](s.cfg.QueueDepth),
		instances: make(map[uint64]*instance),
		pending:   make(map[uint64]*pendingBox),
		tombs:     newTombSet(uint64(s.cfg.Shards), 2*s.cfg.InstanceTimeout, time.Now()),
	}
}

// receive queues a reader's burst for the shard, blocking while the inbox
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
// frame waits on anything but the shard step that emitted it.
func (sh *shard) flush() {
	for i, p := range sh.rung {
		p.out.ring()
		sh.rung[i] = nil
	}
	sh.rung = sh.rung[:0]
}

// tick is the shard housekeeping cadence: instance expiry, pending and
// tombstone GC.
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
				if inst.done {
					continue // result already delivered; it was only lingering
				}
				inst.res <- Result{Instance: inst.id, Epoch: inst.mesh.epoch, Err: ErrServiceClosed}
				sh.svc.ctr.active.Add(-1)
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
		inst := l.inst
		if _, open := sh.instances[inst.id]; !open {
			continue // instance finished while the self-send waited
		}
		sh.step(inst, sh.svc.cfg.ID, &l.msg)
	}
	if cap(sh.local) > 1024 {
		sh.local = nil // don't let a burst pin a large backing array
	} else {
		sh.local = sh.local[:0]
	}
}

// deliver routes one network delivery to its instance, or buffers it when
// the local Propose has not arrived yet. m's vector lives in its reader's
// burst chunk: a step reads it (the exchange copies a value it has not seen
// into its own tables), and only the pending buffer keeps the message.
func (sh *shard) deliver(m *inMsg) {
	if inst, ok := sh.instances[m.instance]; ok {
		sh.step(inst, m.from, &m.msg)
		return
	}
	if sh.tombs.has(m.instance) {
		return // finished here; peers catching up need nothing from us
	}
	// Buffered even while draining: a Propose accepted before the drain may
	// still be queued for this shard.
	box := sh.pending[m.instance]
	if box == nil {
		box = &pendingBox{since: time.Now()}
		sh.pending[m.instance] = box
	}
	if len(box.msgs) >= sh.svc.cfg.PendingLimit {
		sh.svc.ctr.pendingDropped.Add(1)
		return
	}
	// Copied, so an instance that is never proposed pins a few vectors for
	// the pending TTL, not every chunk they arrived in.
	kept := *m
	kept.msg.RBC.Value = kept.msg.RBC.Value.Clone()
	box.msgs = append(box.msgs, kept)
	sh.svc.ctr.pendingFrames.Add(1)
}

// open starts an instance: register, init (round 1 broadcasts), then
// replay any frames that arrived ahead of the proposal.
func (sh *shard) open(req proposeReq) {
	// Instance ids are global across epochs: a live or tombstoned id is
	// refused even when the new proposal would pin a different epoch —
	// peers route frames by id alone, so reuse would conflate instances.
	if _, live := sh.instances[req.id]; live || sh.tombs.has(req.id) {
		req.res <- Result{Instance: req.id, Epoch: req.mesh.epoch, Err: ErrDuplicateInstance}
		sh.svc.ctr.active.Add(-1)
		sh.svc.releaseMesh(req.mesh)
		sh.svc.checkDrained()
		return
	}
	now := time.Now()
	inst := &instance{
		id:       req.id,
		node:     req.node,
		res:      req.res,
		mesh:     req.mesh,
		started:  now,
		deadline: now.Add(sh.svc.cfg.InstanceTimeout),
	}
	sh.instances[req.id] = inst
	sh.svc.ctr.proposed.Add(1)

	sh.afterStep(inst, inst.node.Start())
	if box, ok := sh.pending[req.id]; ok {
		delete(sh.pending, req.id)
		sh.svc.ctr.pendingFrames.Add(-int64(len(box.msgs)))
		for i := range box.msgs {
			if _, open := sh.instances[req.id]; !open {
				break // failed mid-replay
			}
			sh.step(inst, box.msgs[i].from, &box.msgs[i].msg)
		}
	}
}

// step feeds one message to the instance's state machine and acts on what
// it reports.
func (sh *shard) step(inst *instance, from int, m *aad.Msg) {
	sh.afterStep(inst, inst.node.Step(sim.ProcID(from), m))
}

// afterStep sends what the node's step left in its outbox and moves the
// instance along its lifecycle: a failed node is retired with its error; a
// node that just decided delivers its result and transitions to lingering —
// it stays registered, serving the exchange for lagging peers, until it is
// quiescent, when it is tombstoned at once, or until expire tombstones it.
// A quiescent node answers nothing, so dropping it changes no message.
func (sh *shard) afterStep(inst *instance, st core.StepStatus) {
	out := inst.node.Outbox()
	for i := range out {
		sh.broadcast(inst, &out[i])
	}
	switch st {
	case core.StepOutOfRange:
		sh.svc.ctr.outOfRange.Add(1)
	case core.StepFailed:
		_, err := inst.node.Decision()
		sh.svc.ctr.failed.Add(1)
		sh.retire(inst, Result{Instance: inst.id, Epoch: inst.mesh.epoch, Rounds: inst.node.Rounds(), Elapsed: time.Since(inst.started), Err: err})
	case core.StepDecided:
		dec, _ := inst.node.Decision() // a decided node has no error
		inst.done = true
		inst.lingerUntil = time.Now().Add(sh.svc.cfg.LingerTimeout)
		sh.svc.ctr.decided.Add(1)
		sh.svc.ctr.lingering.Add(1)
		inst.res <- Result{
			Instance: inst.id,
			Epoch:    inst.mesh.epoch,
			Decision: dec,
			Rounds:   inst.node.Rounds(),
			Elapsed:  time.Since(inst.started),
		}
		sh.svc.ctr.active.Add(-1)
		sh.svc.checkDrained()
	}
	if inst.done && inst.node.Quiescent() {
		sh.svc.ctr.quiesced.Add(1)
		sh.tombstone(inst)
	}
}

// broadcast is one message of inst to the complete graph: encoded once into
// the shard's frame scratch, the same bytes copied into every peer's
// outbox, and looped back to this process through the local FIFO (pushing
// to our own bounded inbox from the shard goroutine could deadlock). A
// writer's ring is deferred to the end of the shard's wake-up.
func (sh *shard) broadcast(inst *instance, m *aad.Msg) {
	if err := toWire(m, &sh.enc); err != nil {
		sh.svc.noteErr(err)
		return
	}
	sh.frame = wire.AppendConsensus(sh.frame[:0], inst.id, &sh.enc)
	for _, p := range inst.mesh.peers {
		if p == nil { // our own slot
			sh.local = append(sh.local, localMsg{inst: inst, msg: *m})
			continue
		}
		if p.enqueue(sh.frame, sh.flush) {
			sh.rung = append(sh.rung, p)
		}
	}
}

// retire delivers the result, tombstones the id, releases the epoch
// pin, and updates gauges.
func (sh *shard) retire(inst *instance, res Result) {
	delete(sh.instances, inst.id)
	sh.tombs.add(inst.id)
	inst.res <- res
	sh.svc.ctr.active.Add(-1)
	sh.svc.releaseMesh(inst.mesh)
	sh.svc.checkDrained()
}

// tombstone ends a lingering instance: its id is refused from now on, and
// its epoch pin is released.
func (sh *shard) tombstone(inst *instance) {
	delete(sh.instances, inst.id)
	sh.tombs.add(inst.id)
	sh.svc.ctr.lingering.Add(-1)
	sh.svc.releaseMesh(inst.mesh)
}

// maxLingerExtends caps the partition-aware linger extensions per
// instance, bounding a decided instance's lifetime even through an
// unhealed partition.
const maxLingerExtends = 4

// expire enforces instance deadlines, tombstones lingering instances whose
// window closed — those that never quiesced, e.g. behind a crashed origin —
// and garbage-collects pending boxes and tombstone generations.
// Decided instances whose linger window closes while the mesh is degraded
// (fewer than n−f reachable processes) extend their linger instead of
// tombstoning — lagging peers behind a partition still need this
// process's echoes once the partition heals — up to maxLingerExtends
// windows.
func (sh *shard) expire(now time.Time) {
	for _, inst := range sh.instances {
		if inst.done {
			if now.After(inst.lingerUntil) {
				if inst.lingerExtends < maxLingerExtends &&
					sh.svc.reachable(inst.mesh) < sh.svc.n-sh.svc.cfg.Node.F {
					inst.lingerExtends++
					inst.lingerUntil = now.Add(sh.svc.cfg.LingerTimeout)
					sh.svc.ctr.lingerExtensions.Add(1)
					continue
				}
				sh.tombstone(inst)
			}
			continue
		}
		if now.After(inst.deadline) {
			sh.svc.ctr.timedOut.Add(1)
			sh.retire(inst, Result{Instance: inst.id, Epoch: inst.mesh.epoch, Elapsed: now.Sub(inst.started), Err: ErrInstanceTimeout})
		}
	}
	pendingTTL := sh.svc.cfg.InstanceTimeout
	for id, box := range sh.pending {
		if now.Sub(box.since) > pendingTTL {
			sh.svc.ctr.pendingFrames.Add(-int64(len(box.msgs)))
			sh.svc.ctr.pendingDropped.Add(int64(len(box.msgs)))
			delete(sh.pending, id)
		}
	}
	sh.tombs.expire(now)
}
