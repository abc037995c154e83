package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Counters is a snapshot of one injector's fault counters. All fields
// count frames except KilledConns and RefusedDials. For a fixed frame
// sequence per link, every field is a deterministic function of the
// scenario and seed.
type Counters struct {
	// Frames counts frames that crossed the injector's write path.
	Frames int64
	// Delayed counts frames paced by the delay, jitter and burst model.
	Delayed int64
	// Dropped, Duplicated, Reordered, Corrupted count per-frame fault
	// decisions from the link PRNGs.
	Dropped, Duplicated, Reordered, Corrupted int64
	// RefusedWrites counts frames refused (with ErrLinkIsolated,
	// retained by the sender) on an isolated link.
	RefusedWrites int64
	// KilledConns counts established conns severed by partitions (or
	// Sever); RefusedDials counts dials refused on an isolated link.
	KilledConns, RefusedDials int64
}

// Add accumulates o into c (for mesh-wide totals).
func (c *Counters) Add(o Counters) {
	c.Frames += o.Frames
	c.Delayed += o.Delayed
	c.Dropped += o.Dropped
	c.Duplicated += o.Duplicated
	c.Reordered += o.Reordered
	c.Corrupted += o.Corrupted
	c.RefusedWrites += o.RefusedWrites
	c.KilledConns += o.KilledConns
	c.RefusedDials += o.RefusedDials
}

// injCounters is the internal atomic form.
type injCounters struct {
	frames, delayed                          atomic.Int64
	dropped, duplicated, reorder, corrupted  atomic.Int64
	refusedWrites, killedConns, refusedDials atomic.Int64
}

// Injector applies one process's half of a Scenario: it owns the fault
// state of every directed link local→peer (each direction of a link is
// controlled by its writer's endpoint) and implements the service's
// Transport surface — Listen passes through, Dial refuses isolated links
// and wraps the conn, Accepted wraps inbound conns. Zero-valued scenarios
// wrap into pure passthroughs, so an Injector with only manual
// Partition/Sever/HealAll control is also the fault backend for
// verify.ServiceSystem.
type Injector struct {
	scn   *Scenario
	n     int
	local int
	ctr   injCounters

	mu    sync.Mutex
	links []*linkState // by peer id; nil at local

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

// linkState is the shared fault state of the directed link local→peer:
// the PRNG all fault decisions draw from (in frame order), the isolate
// flag, the pacing horizon delay extends, the one-frame reorder hold, and
// the live conns to sever on partition.
type linkState struct {
	inj   *Injector
	peer  int
	prof  LinkFault
	paced bool    // profile delays, jitters, or bursts
	skew  float64 // pacing clock multiplier (1 = nominal)

	mu      sync.Mutex
	rng     *rand.Rand
	refuse  bool      // writes and dials refused with ErrLinkIsolated
	loss    float64   // dynamic one-directional loss rate; -1 = use profile Drop
	held    []byte    // frame held back by a reorder decision
	horizon time.Time // FIFO floor: next frame releases no earlier
	anchor  time.Time // slow-then-burst boundary anchor (first paced frame)
	conns   map[*faultConn]struct{}
}

// NewInjector builds the fault injector for process local of an n-process
// mesh. The scenario may be nil (pure manual control, no static faults).
func NewInjector(scn *Scenario, n, local int) (*Injector, error) {
	if scn == nil {
		scn = &Scenario{}
	}
	if err := scn.Validate(n); err != nil {
		return nil, err
	}
	if local < 0 || local >= n {
		return nil, fmt.Errorf("chaos: local id %d out of range for n=%d", local, n)
	}
	in := &Injector{scn: scn, n: n, local: local, stopCh: make(chan struct{})}
	in.links = make([]*linkState, n)
	for peer := 0; peer < n; peer++ {
		if peer == local {
			continue
		}
		prof := scn.Profile(local, peer)
		skew := prof.Skew
		if skew == 0 {
			skew = 1
		}
		in.links[peer] = &linkState{
			inj:   in,
			peer:  peer,
			prof:  prof,
			paced: prof.Delay > 0 || prof.Jitter > 0 || prof.BurstEvery > 0,
			rng:   rand.New(rand.NewSource(linkSeed(scn.Seed, local, peer))),
			loss:  -1,
			skew:  skew,
			conns: make(map[*faultConn]struct{}),
		}
	}
	return in, nil
}

// linkSeed mixes the scenario seed with the directed link identity.
func linkSeed(seed int64, from, to int) int64 {
	z := uint64(seed) ^ (uint64(from+1) * 0x9e3779b97f4a7c15) ^ (uint64(to+1) * 0xbf58476d1ce4e5b9)
	z ^= z >> 30
	z *= 0x94d049bb133111eb
	z ^= z >> 27
	return int64(z)
}

// Start schedules the scenario's transport events relative to t0. Manual
// control works without Start; calling it twice is a no-op.
func (in *Injector) Start(t0 time.Time) {
	in.startOnce.Do(func() {
		ops := in.scn.Timeline(in.n, in.local)
		if len(ops) == 0 {
			return
		}
		in.wg.Add(1)
		go func() {
			defer in.wg.Done()
			for _, op := range ops {
				select {
				case <-time.After(time.Until(t0.Add(op.At))):
				case <-in.stopCh:
					return
				}
				in.apply(op)
			}
		}()
	})
}

// Stop halts the event scheduler and closes every wrapped conn.
func (in *Injector) Stop() {
	in.stopOnce.Do(func() { close(in.stopCh) })
	for _, lk := range in.links {
		if lk == nil {
			continue
		}
		lk.mu.Lock()
		conns := make([]*faultConn, 0, len(lk.conns))
		for c := range lk.conns {
			conns = append(conns, c)
		}
		lk.mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	}
	in.wg.Wait()
}

// apply executes one timeline operation.
func (in *Injector) apply(op LinkOp) {
	switch op.Op {
	case "heal":
		in.Heal(op.Peer)
	case ActionLose:
		in.SetLoss(op.Peer, op.Val)
	case "isolate":
		in.Isolate(op.Peer)
	case "sever":
		in.Sever(op.Peer)
	}
}

// SetLoss overrides the one-directional loss rate of local→peer: each
// frame is dropped with probability rate until the override is cleared
// (rate 0 restores the static profile's Drop). The drop draw keeps its
// fixed position in the per-frame draw order, so changing the rate
// mid-run never desynchronizes later fault decisions.
func (in *Injector) SetLoss(peer int, rate float64) {
	if lk := in.link(peer); lk != nil {
		lk.mu.Lock()
		if rate <= 0 {
			lk.loss = -1
		} else {
			lk.loss = rate
		}
		lk.mu.Unlock()
	}
}

// Isolate refuses writes and dials on the directed link local→peer with
// ErrLinkIsolated — the lossless partition primitive: a sender with
// retransmission retains everything for the heal.
func (in *Injector) Isolate(peer int) {
	if lk := in.link(peer); lk != nil {
		lk.mu.Lock()
		lk.refuse = true
		lk.mu.Unlock()
	}
}

// Heal clears isolation or a loss override on local→peer — the link
// returns to its static profile.
func (in *Injector) Heal(peer int) {
	if lk := in.link(peer); lk != nil {
		lk.mu.Lock()
		lk.refuse = false
		lk.loss = -1
		lk.mu.Unlock()
	}
}

// HealAll heals every link.
func (in *Injector) HealAll() {
	for peer := range in.links {
		in.Heal(peer)
	}
}

// Sever kills every established conn on local→peer. TCP conns are
// half-closed (FIN after the kernel flushes the send buffer) rather than
// closed outright: a full close with unread receive data answers the
// peer with RST, which can discard delivered-but-unread frames — loss
// the scenario never scheduled. The peer sees EOF, both services mark
// the link failed and close their ends, and redial/backoff runs. The
// conns are shared with the peer's inbound direction, so severing is
// inherently bidirectional, like a real partition.
func (in *Injector) Sever(peer int) {
	lk := in.link(peer)
	if lk == nil {
		return
	}
	lk.mu.Lock()
	conns := make([]*faultConn, 0, len(lk.conns))
	for c := range lk.conns {
		conns = append(conns, c)
	}
	lk.mu.Unlock()
	for _, c := range conns {
		in.ctr.killedConns.Add(1)
		if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
			_ = cw.CloseWrite()
		} else {
			_ = c.Close()
		}
	}
}

// Partition applies ActionPartition semantics immediately (manual
// control): cross-group links isolated then severed — isolation first,
// so a writer racing the sever gets a refusal (and retains its frames)
// rather than slipping through or being silently swallowed. In-group
// links heal.
func (in *Injector) Partition(groups [][]int) {
	idx := groupIndex(groups, in.n)
	for peer := 0; peer < in.n; peer++ {
		if peer == in.local {
			continue
		}
		if idx[in.local] == idx[peer] {
			in.Heal(peer)
		} else {
			in.Isolate(peer)
			in.Sever(peer)
		}
	}
}

// Counters snapshots the injector's fault counters.
func (in *Injector) Counters() Counters {
	return Counters{
		Frames:        in.ctr.frames.Load(),
		Delayed:       in.ctr.delayed.Load(),
		Dropped:       in.ctr.dropped.Load(),
		Duplicated:    in.ctr.duplicated.Load(),
		Reordered:     in.ctr.reorder.Load(),
		Corrupted:     in.ctr.corrupted.Load(),
		RefusedWrites: in.ctr.refusedWrites.Load(),
		KilledConns:   in.ctr.killedConns.Load(),
		RefusedDials:  in.ctr.refusedDials.Load(),
	}
}

func (in *Injector) link(peer int) *linkState {
	if peer < 0 || peer >= in.n {
		return nil
	}
	return in.links[peer]
}

// Listen implements the Transport surface: a plain TCP listener (inbound
// faults are the remote writer's business).
func (in *Injector) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial dials peer, refusing with ErrLinkIsolated while the link is
// isolated, and wraps the conn so outbound frames pass the fault path.
func (in *Injector) Dial(ctx context.Context, peer int, addr string) (net.Conn, error) {
	if lk := in.link(peer); lk != nil {
		lk.mu.Lock()
		refuse := lk.refuse
		lk.mu.Unlock()
		if refuse {
			in.ctr.refusedDials.Add(1)
			return nil, ErrLinkIsolated
		}
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return in.wrap(peer, conn), nil
}

// Accepted wraps an inbound conn once the handshake has identified the
// peer, so this side's outbound frames (echoes, reports, challenge
// replies) pass the fault path too.
func (in *Injector) Accepted(peer int, conn net.Conn) net.Conn {
	return in.wrap(peer, conn)
}

// wrap builds the fault conn for one established connection on
// local→peer.
func (in *Injector) wrap(peer int, conn net.Conn) net.Conn {
	lk := in.link(peer)
	if lk == nil {
		return conn // unknown peer: leave the conn alone
	}
	fc := newFaultConn(lk, conn)
	lk.mu.Lock()
	lk.conns[fc] = struct{}{}
	lk.mu.Unlock()
	return fc
}

func (lk *linkState) drop(fc *faultConn) {
	lk.mu.Lock()
	delete(lk.conns, fc)
	lk.mu.Unlock()
}
