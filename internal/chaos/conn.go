package chaos

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrLinkIsolated is returned by Write and Dial while the link is isolated
// by a partition. Isolation refuses the write rather than swallowing it,
// so a sender with retransmission (the service's writeLoop) retains the
// frames and delivers them after the heal: partitions are lossless for
// well-behaved senders. Loss is scheduled separately, by a profile's Drop
// or a lose event.
var ErrLinkIsolated = errors.New("chaos: link isolated")

// faultConn wraps one established conn on the directed link local→peer.
// Only the write side is intercepted: each direction of a link is faulted
// by its writer's endpoint, so reads pass through untouched (the remote
// injector already faulted them). The service's per-peer writer coalesces
// many frames into one Write, so the conn re-splits the byte stream at
// the v2 length prefixes and applies fault decisions per frame.
//
// Paced delivery is synchronous: Write sleeps until the latest release
// time among the batch's surviving frames, then forwards them. Nothing is
// ever acknowledged before it reaches the underlying conn, so severing a
// link mid-flight surfaces as a write error instead of silently losing
// frames the sender believes were delivered — the property the service's
// write-retry depends on. The sleep runs inside the link writer's Write,
// so successive batches on one link serialize: the next batch, which
// accumulates behind the sleeping Write, is paced only once that Write
// returns, and reaches the peer at least one delay after its
// predecessor. A link with delay D thus delivers at most one batch per
// D, where a real wire would pipeline them.
type faultConn struct {
	net.Conn
	lk *linkState

	wmu   sync.Mutex
	carry []byte // partial frame spanning Write calls
	raw   bool   // non-frame traffic detected: passthrough from here on
	out   []byte // per-Write emission scratch

	closeOnce sync.Once
	closeErr  error
}

func newFaultConn(lk *linkState, conn net.Conn) *faultConn {
	return &faultConn{Conn: conn, lk: lk}
}

// Write splits the stream into frames, applies the link's fault program,
// sleeps out the batch's propagation delay, and forwards the surviving
// bytes. It reports the full length as written even when frames were
// dropped: silent loss is the fault being injected. An isolated link
// refuses the whole batch with ErrLinkIsolated instead.
func (fc *faultConn) Write(b []byte) (int, error) {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if fc.raw {
		return fc.Conn.Write(b)
	}
	fc.carry = append(fc.carry, b...)
	fc.out = fc.out[:0]
	var rel time.Time
	for {
		if len(fc.carry) < 4 {
			break
		}
		size := int(binary.BigEndian.Uint32(fc.carry))
		if size > wire.MaxFrameSize {
			// Not our framing; stop interpreting this conn's stream.
			fc.raw = true
			fc.out = append(fc.out, fc.carry...)
			fc.carry = nil
			break
		}
		if len(fc.carry) < 4+size {
			break
		}
		frame := fc.carry[:4+size]
		r, err := fc.lk.process(frame, &fc.out)
		if err != nil {
			fc.carry = nil
			return 0, err
		}
		if r.After(rel) {
			rel = r
		}
		fc.carry = fc.carry[4+size:]
	}
	if len(fc.carry) > 0 {
		// Keep the partial tail without aliasing the consumed prefix.
		fc.carry = append([]byte(nil), fc.carry...)
	} else {
		fc.carry = nil
	}
	if len(fc.out) == 0 {
		return len(b), nil
	}
	if d := time.Until(rel); d > 0 {
		time.Sleep(d)
	}
	if _, err := fc.Conn.Write(fc.out); err != nil {
		return 0, err
	}
	return len(b), nil
}

// Close unregisters the conn from its link.
func (fc *faultConn) Close() error {
	fc.closeOnce.Do(func() {
		fc.lk.drop(fc)
		fc.closeErr = fc.Conn.Close()
	})
	return fc.closeErr
}

// process applies the link's fault program to one frame, appending
// surviving bytes to out and returning the latest release time among the
// emitted copies (zero when the link is unpaced or nothing survived). All
// PRNG draws happen here, under the link lock, in frame order — the
// per-frame decisions are a pure function of the seed and the frame
// sequence. Draw order is fixed (drop, corrupt, duplicate, reorder)
// regardless of outcomes so decisions stay aligned per frame.
func (lk *linkState) process(frame []byte, out *[]byte) (time.Time, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	ctr := &lk.inj.ctr
	ctr.frames.Add(1)
	if lk.refuse {
		ctr.refusedWrites.Add(1)
		return time.Time{}, ErrLinkIsolated
	}
	p := lk.prof
	pDrop := lk.rng.Float64()
	pCorrupt := lk.rng.Float64()
	pDup := lk.rng.Float64()
	pReorder := lk.rng.Float64()
	drop := p.Drop
	if lk.loss >= 0 {
		// A scheduled one-directional loss override replaces the static
		// rate; the draw above happened regardless, keeping alignment.
		drop = lk.loss
	}
	if pDrop < drop {
		ctr.dropped.Add(1)
		return time.Time{}, nil
	}
	f := append([]byte(nil), frame...)
	if pCorrupt < p.Corrupt && len(f) > 4 {
		// Flip one byte past the length prefix: the stream stays framed,
		// the receiver's parse path sees the damage.
		f[4+lk.rng.Intn(len(f)-4)] ^= byte(1 + lk.rng.Intn(255))
		ctr.corrupted.Add(1)
	}
	var emits [][]byte
	switch {
	case lk.held != nil:
		// A held frame waits for its successor: emit the new frame first,
		// then the held one — adjacent frames swapped.
		emits = append(emits, f, lk.held)
		lk.held = nil
	case pReorder < p.Reorder:
		lk.held = f
		ctr.reorder.Add(1)
	default:
		emits = append(emits, f)
		if pDup < p.Duplicate {
			ctr.duplicated.Add(1)
			emits = append(emits, append([]byte(nil), f...))
		}
	}
	var rel time.Time
	for _, e := range emits {
		if lk.paced {
			ctr.delayed.Add(1)
			if r := lk.release(); r.After(rel) {
				rel = r
			}
		}
		*out = append(*out, e...)
	}
	return rel, nil
}

// release computes the paced release time of the next frame. Delay and
// jitter model propagation: they push each frame's release out, and the
// frames of one batch leave together at the latest of their releases.
// Batches do not overlap: faultConn.Write sleeps out each batch before
// the writer hands it the next, so a batch's delay starts only when its
// predecessor has been forwarded. All pacing durations stretch by the
// link's clock skew; a slow-then-burst profile then quantizes the release
// up to the next burst boundary, so the link sits silent between
// boundaries and flushes at each one. FIFO order is preserved by flooring
// every release at its predecessor's. Caller holds lk.mu.
func (lk *linkState) release() time.Time {
	p := lk.prof
	now := time.Now()
	rel := now.Add(skewed(p.Delay.D(), lk.skew))
	if p.Jitter > 0 {
		rel = rel.Add(skewed(time.Duration(lk.rng.Int63n(int64(p.Jitter)+1)), lk.skew))
	}
	if every := skewed(p.BurstEvery.D(), lk.skew); every > 0 {
		if lk.anchor.IsZero() {
			lk.anchor = now
		}
		// Round the release up to the next burst boundary after it.
		if since := rel.Sub(lk.anchor); since > 0 {
			bursts := (since + every - 1) / every
			rel = lk.anchor.Add(bursts * every)
		}
	}
	if rel.Before(lk.horizon) {
		rel = lk.horizon
	}
	lk.horizon = rel
	return rel
}

// skewed stretches a pacing duration by the link's clock-skew factor.
func skewed(d time.Duration, factor float64) time.Duration {
	if factor == 1 || d == 0 {
		return d
	}
	return time.Duration(float64(d) * factor)
}
