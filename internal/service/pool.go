package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/wire"
)

// linkState is where a peer link is in its life (docs/SERVICE.md, "The
// link state machine", draws linkEdges).
type linkState uint32

const (
	linkIdle      linkState = iota // no conn, no dial loop: before Establish, or an accepting side awaiting its peer's dial
	linkDialing                    // the dialing side's loop is running
	linkJoined                     // a conn is installed but has delivered no frame yet
	linkConnected                  // the installed conn has delivered a frame
	linkLeaving                    // the peer said goodbye on the installed conn
	linkGone                       // the conn of a peer that said goodbye ended; nothing redials it
	linkClosed                     // the service closed; no edge leaves it
)

func (s linkState) String() string {
	return [...]string{"idle", "dialing", "joined", "connected", "leaving", "gone", "closed"}[s]
}

// hasConn reports whether a link in state s holds an installed conn.
func (s linkState) hasConn() bool { return s >= linkJoined && s <= linkLeaving }

// linkEvent is what moves a link from one state to the next.
type linkEvent uint8

const (
	linkDial      linkEvent = iota // the dialing side starts its dial loop
	linkDialFail                   // one dial or handshake attempt failed
	linkInstall                    // a handshaken conn is installed
	linkFrame                      // the installed conn delivered its first frame
	linkGoodbye                    // the peer announced its drain on the installed conn
	linkDrop                       // the installed conn ended
	linkReaddress                  // a Reconfigure put a new process in the slot
	linkClose                      // the service closed
)

// linkEdges is the link's transition table, one row per state; an event
// missing from a row is refused.
var linkEdges = [...]map[linkEvent]linkState{
	linkIdle:      {linkDial: linkDialing, linkInstall: linkJoined, linkReaddress: linkIdle, linkClose: linkClosed},
	linkDialing:   {linkDialFail: linkDialing, linkInstall: linkJoined, linkReaddress: linkDialing, linkClose: linkClosed},
	linkJoined:    {linkInstall: linkJoined, linkFrame: linkConnected, linkDrop: linkIdle, linkReaddress: linkIdle, linkClose: linkClosed},
	linkConnected: {linkInstall: linkJoined, linkGoodbye: linkLeaving, linkDrop: linkIdle, linkReaddress: linkIdle, linkClose: linkClosed},
	linkLeaving:   {linkInstall: linkJoined, linkDrop: linkGone, linkReaddress: linkIdle, linkClose: linkClosed},
	linkGone:      {linkInstall: linkJoined, linkReaddress: linkIdle, linkClose: linkClosed},
	linkClosed:    {},
}

// peerLink is one peer's slot in the connection pool, one per peer id for
// the service's whole life: the persistent connection (replaced
// transparently on failure), the bounded outbox its writer goroutine swaps
// out and writes, the peer's current address, its lifecycle state, and
// its redial backoff. The higher id dials the lower, so exactly one side
// owns redialing after a failure. A membership change re-addresses the
// link in place (readdress); only Close ends it.
type peerLink struct {
	svc    *Service
	id     int
	dialer bool // this process dials the peer (it has the higher id)

	// out holds encoded frames laid end to end, bounded at OutboxDepth
	// frames; the writer swaps it for its own buffer and issues one Write.
	out *mailbox[byte]

	// The rest is guarded by mu. Only to writes state; connected also reads
	// it atomically, under the outbox's lock. conn is set iff
	// state.hasConn().
	mu    sync.Mutex
	cond  *sync.Cond // broadcast on every transition
	state linkState
	addr  string
	conn  net.Conn
	gen   int           // bumped per installed conn; events of older conns are ignored
	ready chan struct{} // closed at the first install

	// Redial backoff: consecutive failed dials (a conn dropped while
	// joined included) and the jitter (seeded per link, so schedules are
	// replayable).
	dialFails int
	rng       *rand.Rand
}

func newPeerLink(svc *Service, id int, addr string) *peerLink {
	p := &peerLink{
		svc:    svc,
		id:     id,
		dialer: svc.cfg.ID > id,
		addr:   addr,
		out:    newMailbox[byte](svc.cfg.OutboxDepth),
		ready:  make(chan struct{}),
		rng:    rand.New(rand.NewPCG(uint64(svc.cfg.Seed)^uint64(id+1)*0x9e3779b97f4a7c15, 0)),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// to moves the link along edge ev of linkEdges, with mu held, and does the
// edge's work (SERVICE.md lists it); it is the only writer of state, and
// returns false, changing nothing, for an edge the table lacks. conn is
// the conn to install. A drop while joined is a failed dial on the dialing
// side: a keyless dialer learns of a refused handshake only that way.
func (p *peerLink) to(ev linkEvent, conn net.Conn) bool {
	from := p.state
	next, ok := linkEdges[from][ev]
	if !ok {
		return false
	}
	atomic.StoreUint32((*uint32)(&p.state), uint32(next))
	switch ev {
	case linkDial:
		p.svc.wg.Add(1)
		go func() {
			defer p.svc.wg.Done()
			p.redial()
		}()
	case linkDialFail, linkDrop:
		if ev == linkDialFail || from == linkJoined && p.dialer {
			p.dialFails++
			p.svc.ctr.dialFailures.Add(1)
		}
	case linkInstall:
		if p.conn != nil {
			_ = p.conn.Close()
		}
		p.conn = conn
		p.gen++
		select {
		case <-p.ready:
			if p.dialer {
				p.svc.ctr.reconnects.Add(1)
			}
		default:
			close(p.ready)
		}
	case linkFrame, linkReaddress:
		p.dialFails = 0
	}
	if p.conn != nil && !next.hasConn() {
		_ = p.conn.Close()
		p.conn = nil
	}
	p.cond.Broadcast()
	if !next.hasConn() && from != next {
		p.out.kick() // senders blocked on a full outbox stop waiting on a down peer
	}
	if next == linkIdle && p.dialer {
		p.to(linkDial, nil)
	}
	return true
}

// fire applies ev to the link under its lock.
func (p *peerLink) fire(ev linkEvent) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.to(ev, nil)
}

// onConn applies ev (frame, goodbye or drop) if gen is still the installed
// conn's generation: a replaced conn's reader or writer reports nothing.
func (p *peerLink) onConn(gen int, ev linkEvent) {
	p.mu.Lock()
	if gen == p.gen {
		p.to(ev, nil)
	}
	p.mu.Unlock()
}

// readdress points the link at addr. replaced says a Reconfigure put a
// new process in the slot (the readdress edge); Establish's override only
// names the same process's bound address. The outbox goes to whoever is
// at addr.
func (p *peerLink) readdress(addr string, replaced bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if addr != p.addr {
		p.addr = addr
		if replaced {
			p.to(linkReaddress, nil)
		}
	}
}

// backoffLocked returns the sleep before the next dial after dialFails
// consecutive failed attempts: none after none, else uniform in [b/2, b]
// where b = min(DialBackoff·2^(dialFails−1), MaxDialBackoff), so a healed
// partition is not hammered by synchronized redials from every survivor.
func (p *peerLink) backoffLocked() time.Duration {
	if p.dialFails == 0 {
		return 0
	}
	// The exponent is capped at 20 so the shift cannot overflow.
	half := int64(min(p.svc.cfg.DialBackoff<<min(p.dialFails-1, 20), p.svc.cfg.MaxDialBackoff) / 2)
	return time.Duration(half + p.rng.Int64N(half+1))
}

// install makes conn the link's connection and starts its reader loop.
// epoch is the membership epoch conn's handshake named: once the service
// has moved past it the conn is refused (closed, false), since the slot
// may have been re-addressed meanwhile.
func (p *peerLink) install(conn net.Conn, epoch uint64) bool {
	p.mu.Lock()
	ok := epoch == p.svc.Epoch() && p.to(linkInstall, conn)
	gen := p.gen
	p.mu.Unlock()
	if !ok {
		_ = conn.Close()
		return false
	}
	p.svc.wg.Add(1)
	go func() {
		defer p.svc.wg.Done()
		p.readLoop(conn, gen)
	}()
	return true
}

// waitConn blocks until a connection is installed (returning it with its
// generation) or the link closes (returning nil).
func (p *peerLink) waitConn() (net.Conn, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.state.hasConn() && p.state != linkClosed {
		p.cond.Wait()
	}
	return p.conn, p.gen
}

// connected reports whether a connection is currently installed. It reads
// the state without mu, so a sender may call it under the outbox's lock.
func (p *peerLink) connected() bool {
	return linkState(atomic.LoadUint32((*uint32)(&p.state))).hasConn()
}

// enqueue appends one encoded frame to the outbox (the bytes are copied;
// the caller keeps its buffer) and reports whether the writer needs
// ringing: the outbox was empty, so no earlier sender's ring covers this
// frame. Senders inside an instance-loop wake-up collect those links and
// ring them once when the wake-up ends (shard.flush); Drain's goodbye
// rings at once.
//
// At OutboxDepth frames the sender waits for the writer's next swap —
// backpressure that propagates to the instance loop — after calling
// stalled, the caller's chance to ring what it has deferred before it
// sleeps. It only waits while the peer is connected: a full outbox on a
// disconnected link drops the frame instead (counted as WriteDrops),
// because blocking on a crashed peer would stall the instance loop — the
// protocols tolerate the loss exactly as they tolerate the crash itself.
func (p *peerLink) enqueue(frame []byte, stalled func()) (ring bool) {
	n, ring := p.out.put(frame, 1, nil)
	if n == 1 {
		return ring
	}
	p.svc.ctr.outboxStalls.Add(1)
	if p.connected() {
		if stalled != nil {
			stalled()
		}
		n, ring = p.out.put(frame, 1, p.connected)
	}
	if n == 0 && !stopping(p.svc) {
		p.svc.ctr.writeDrops.Add(1)
	}
	return ring
}

// writeLoop sends what the outbox holds each time it is rung: it swaps the
// outbox for its own buffer and issues one Write, so every frame queued
// since the last swap shares a syscall. The swap waits for a connection —
// while the peer is down frames accumulate in the outbox, which is the
// partition buffer OutboxDepth sizes. A batch whose Write fails is
// RETAINED and resent on the next connection generation, ahead of anything
// queued since: the receiver discards any torn frame with the dead conn
// (framing is per-conn), and whole frames it already consumed arrive again
// as duplicates, which the protocols dedup exactly as they dedup injected
// duplicate faults. A batch whose Write succeeded is gone from here: if
// the conn resets before the peer reads it, its frames are lost, and a
// later retained batch arrives after the gap. So frames arrive in queue
// order, possibly repeated, and are lost to a reset conn or to an outbox
// overflow against a down peer (see enqueue); delivery is not
// at-least-once. ROADMAP's links item plans acknowledged sessions.
func (p *peerLink) writeLoop() {
	var batch []byte
	for {
		select {
		case <-p.out.bell:
		case <-p.svc.stop:
			return
		}
		conn, gen := p.waitConn()
		if conn == nil {
			return // stopped
		}
		var frames int
		batch, frames = p.out.take(batch)
		for frames > 0 {
			p.svc.ctr.writes.Add(1)
			if _, err := conn.Write(batch); err == nil {
				p.svc.ctr.framesOut.Add(int64(frames))
				p.svc.ctr.bytesOut.Add(int64(len(batch)))
				break
			}
			p.svc.ctr.writeRetries.Add(int64(frames))
			p.onConn(gen, linkDrop)
			if conn, gen = p.waitConn(); conn == nil {
				return
			}
		}
	}
}

// chunkFloats sizes a reader's vector chunk: one allocation per this many
// decoded coordinates instead of one per frame.
const chunkFloats = 512

// vecChunk is a reader's bump allocator for decoded vectors. Storage is
// handed out once and never reused: a burst's messages reference it across
// the reader→loop hand-off, and the collector frees a chunk when the last
// of them is gone.
type vecChunk struct{ buf []float64 }

// decode decodes a consensus body into dec with its vector cut from the
// chunk. dim is the dimension the instances run at; a vector too long for a
// fresh chunk gets storage of its own from DecodeConsensus (and is dropped
// by the protocol).
func (c *vecChunk) decode(dec *wire.ConsensusMsg, body []byte, dim int) error {
	if cap(c.buf)-len(c.buf) < dim {
		c.buf = make([]float64, 0, max(chunkFloats, dim))
	}
	room := c.buf[len(c.buf):]
	dec.Value = room
	if err := wire.DecodeConsensus(dec, body); err != nil {
		return err
	}
	if k := len(dec.Value); k <= cap(room) {
		c.buf = c.buf[:len(c.buf)+k]
		dec.Value = dec.Value[:k:k]
	}
	return nil
}

// readLoop decodes frames off one connection and hands consensus messages
// to the instance loop. It works in bursts: after the read that blocks,
// every complete frame already in the bufio.Reader is decoded too —
// vectors into the reader's chunk — and the burst reaches the loop's inbox
// as one append and at most one wake-up. The bufio.Reader
// has the stdlib's 4 KB default buffer, one per link, which holds most
// reads whole (the mean read is well under 1 KB); a frame that does not
// fit is read straight into buf. Clean peer shutdowns (EOF, reset, local
// close) end the loop quietly; anything else counts as a read error.
// Either way the link is marked failed so the dialing side reconnects.
//
// Malformed or undecodable frames are peer-attributable faults — line
// corruption or a hostile sender, both of which the protocols tolerate
// within f — so they count in Stats.ReadErrors and tear the conn down
// for a clean resync, but do not poison Err(): that channel is reserved
// for local/structural failures (see Service.Err).
func (p *peerLink) readLoop(conn net.Conn, gen int) {
	br := bufio.NewReader(countingReader{conn, &p.svc.ctr.reads})
	var buf []byte
	var dec wire.ConsensusMsg
	var chunk vecChunk
	dim := p.svc.cfg.Node.D
	var burst []inMsg // this burst's deliveries
	var frames, bytes int64
	first := true // no frame parsed off this conn yet
	// deliver hands the burst to the loop; false means the service stopped.
	// The frames were consumed off the conn — the sender will not resend
	// them — so every exit path delivers before it returns.
	deliver := func() bool {
		p.svc.ctr.framesIn.Add(frames)
		p.svc.ctr.bytesIn.Add(bytes)
		frames, bytes = 0, 0
		if len(burst) == 0 {
			return true
		}
		ok := p.svc.loop.receive(burst)
		clear(burst) // the inbox has them; don't pin their chunks here
		burst = burst[:0]
		return ok
	}
read:
	for {
		if !frameBuffered(br) && !deliver() {
			return
		}
		frame, nb, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			// ErrUnexpectedEOF is a peer that crashed mid-frame — as clean
			// a shutdown as the transport can observe.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, net.ErrClosed) && !stopping(p.svc) {
				p.svc.ctr.readErrors.Add(1)
			}
			break read
		}
		buf = nb
		h, body, err := wire.ParseFrame(frame)
		if err != nil {
			p.svc.ctr.readErrors.Add(1)
			break read
		}
		if first {
			first = false
			p.onConn(gen, linkFrame)
		}
		frames++
		bytes += int64(len(frame) + 4)
		switch h.Kind {
		case wire.FrameConsensus:
			if err := chunk.decode(&dec, body, dim); err != nil {
				p.svc.ctr.readErrors.Add(1)
				break read
			}
			m, err := fromWire(&dec)
			if err != nil {
				p.svc.ctr.readErrors.Add(1)
				continue
			}
			burst = append(burst, inMsg{instance: h.Instance, from: p.id, msg: m})
		case wire.FrameGoodbye:
			p.onConn(gen, linkGoodbye)
		case wire.FrameHello:
			// Redundant hello after handshake; ignore.
		default:
			// Unknown or retired frame kind (6 and 7 once carried
			// membership gossip): skip (forward compatibility).
		}
	}
	deliver()
	p.onConn(gen, linkDrop)
}

// countingReader counts the Reads a link reader's bufio.Reader issues on
// its conn: the read syscalls behind Stats.Reads.
type countingReader struct {
	conn  net.Conn
	reads *atomic.Int64
}

func (c countingReader) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.conn.Read(b)
}

// frameBuffered reports whether br already holds a complete frame, so
// reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(hdr))
}

// redial is the link's one dial loop, started by the dial edge and running
// while the link is dialing. It dials with jittered capped exponential
// backoff (backoffLocked), so peers may come up in any order; every failed
// attempt (dial, handshake, or a conn dropped while joined) climbs the
// backoff, the last one before the loop started included. It dials again
// at once when a Reconfigure lands mid-dial.
func (p *peerLink) redial() {
	p.mu.Lock()
	sleep := p.backoffLocked()
	p.mu.Unlock()
	for {
		if sleep > 0 {
			select {
			case <-p.svc.stop:
				return
			case <-time.After(sleep):
			}
		}
		// The epoch is read before the address, so a re-address between
		// the two reads fails the install's epoch check.
		epoch := p.svc.Epoch()
		p.mu.Lock()
		if p.state != linkDialing {
			p.mu.Unlock()
			return
		}
		addr := p.addr
		p.mu.Unlock()
		conn, err := p.svc.dialPeer(p.id, addr, epoch)
		if err == nil {
			if p.install(conn, epoch) {
				return
			}
			sleep = 0
			continue // a Reconfigure landed mid-dial
		}
		p.mu.Lock()
		p.to(linkDialFail, nil)
		sleep = p.backoffLocked()
		p.mu.Unlock()
	}
}

// dialPeer runs one complete outbound connection attempt: transport dial
// plus the client half of the handshake under the given membership
// epoch, bounded by EstablishTimeout and cut short by Close. The returned
// conn is installed by the caller.
func (s *Service) dialPeer(peer int, addr string, epoch uint64) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(s.dials, s.cfg.EstablishTimeout)
	defer cancel()
	conn, err := s.tr.Dial(ctx, peer, addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(s.handshakeDeadline())
	if err := s.clientHandshake(conn, peer, epoch); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// handshakeDeadline bounds one handshake exchange. It is deliberately far
// shorter than a dial attempt's EstablishTimeout: a handshake frame lost
// in transit (a lossy link swallowing a Hello) must recycle the
// connection quickly so the dialer's redial ladder retries, instead of
// pinning both endpoints for a whole attempt.
func (s *Service) handshakeDeadline() time.Time {
	return time.Now().Add(min(2*time.Second, s.cfg.EstablishTimeout))
}

func stopping(s *Service) bool { return closed(s.stop) }

// closed reports whether ch, a latch, has been closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// acceptLoop accepts mesh connections for the service's lifetime: the
// initial establishment from every higher-id peer, and replacement
// connections after failures. The dialer identifies itself with a Hello
// frame; anything else is rejected. A failed Accept goes to Err and is
// retried after a backoff doubling from 5 ms to 1 s; only Close ends it.
func (s *Service) acceptLoop() {
	for backoff := time.Duration(0); ; {
		conn, err := s.ln.Accept()
		if err != nil {
			if stopping(s) || errors.Is(err, net.ErrClosed) {
				return
			}
			s.noteErr(fmt.Errorf("service: accept: %w", err))
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-s.stop:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handshake(conn)
		}()
	}
}

// handshake validates an inbound connection's Hello — running the keyed
// challenge/response when Config.AuthKey is set — wraps the conn through
// the transport, and installs it on the dialer's link. A Hello naming any
// epoch but the current one is rejected and counted — the stale-config
// guard that keeps a replaced process, or a survivor the operator has not
// reconfigured yet, off the mesh until it runs the current membership.
func (s *Service) handshake(conn net.Conn) {
	_ = conn.SetDeadline(s.handshakeDeadline())
	epoch := s.Epoch()
	peer, err := s.serverHandshake(conn, epoch)
	if err != nil || peer <= s.cfg.ID || peer >= s.n {
		if errors.Is(err, ErrAuthFailed) {
			s.ctr.authFailures.Add(1)
		}
		if errors.Is(err, ErrStaleEpoch) {
			s.ctr.staleEpochRejects.Add(1)
		}
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	if !s.peers[peer].install(s.tr.Accepted(peer, conn), epoch) {
		s.ctr.staleEpochRejects.Add(1) // reconfigured during the handshake
	}
}

// Establish builds the full mesh: start the dial loop toward every
// lower-id peer (retrying until its listener is up), accept from every
// higher-id peer, and return once every link is connected, ctx ends or
// the service closes. Only ctx bounds the wait; the dial loops keep
// running past an early return, like any redial. A non-nil addrs
// overrides the construction-time address list — the port-0 flow: every
// process listens on an ephemeral port, the bound addresses are
// exchanged out of band, and Establish gets the final list.
func (s *Service) Establish(ctx context.Context, addrs []string) error {
	if addrs != nil && len(addrs) != s.n {
		return fmt.Errorf("service: establish: %d addresses for n=%d", len(addrs), s.n)
	}
	for id, p := range s.peers {
		if p == nil {
			continue
		}
		if addrs != nil {
			p.readdress(addrs[id], false)
		}
		if p.dialer {
			p.fire(linkDial)
		}
	}
	for id, p := range s.peers {
		if p == nil {
			continue
		}
		select {
		case <-p.ready:
		case <-ctx.Done():
			return fmt.Errorf("service: establish: peer %d not connected: %w", id, ctx.Err())
		case <-s.stop:
			return ErrServiceClosed
		}
	}
	return nil
}
