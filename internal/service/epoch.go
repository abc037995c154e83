package service

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Epoch-numbered dynamic membership. A service is born at Config.Epoch
// (0 for a static mesh) and can be moved to successor memberships while
// running: Reconfigure installs a higher-numbered address list, new
// proposals pin the new epoch, and in-flight or lingering instances keep
// deciding on the link set of the epoch they were born under. The bound
// n ≥ (d+2)f+1 is per-instance, so instances of adjacent epochs coexist
// safely as long as each runs to decision on its birth mesh. The pool
// holds both link sets during the overlap — links whose address did not
// change are shared, not duplicated — and the old epoch's unique links
// are stopped once its last pinned instance tombstones.
//
// Membership size is fixed: a reconfiguration replaces or re-addresses
// members (the dead-process recovery path), it does not grow or shrink
// n, because every instance's consensus configuration is built for the
// service's n. The operator surface is Reconfigure on any survivor; the
// config then propagates through the mesh via EpochAnnounce/EpochAck
// gossip, and a replacement process started with the new Membership
// dials in, authenticates under the new epoch (the handshake MAC binds
// the epoch number), and participates in every instance opened at its
// birth epoch or later.

// Membership names one epoch of the mesh configuration.
type Membership struct {
	// Epoch is the monotonically increasing configuration number. A
	// Reconfigure must carry an epoch strictly greater than the
	// service's current one.
	Epoch uint64
	// N is the membership size; 0 means len(Addrs). It must equal the
	// service's n — memberships replace members, they do not resize.
	N int
	// Addrs lists every process's listen address at this epoch, indexed
	// by process id. Process ids are stable across epochs.
	Addrs []string
	// AuthKey is the mesh's shared handshake key. It must match the
	// service's key (nil means "keep the current key"): key rotation is
	// not part of a membership change.
	AuthKey []byte
}

// Membership/epoch errors.
var (
	// ErrStaleEpoch rejects a Reconfigure that does not advance the
	// epoch, and inbound handshakes claiming an epoch this process does
	// not hold (counted in Stats.StaleEpochRejects).
	ErrStaleEpoch = errors.New("service: stale membership epoch")
)

// mesh is one epoch's view of the pool: the address list and the per-id
// link set instances of that epoch send on. refs counts the pinned
// instances (open or lingering) plus in-flight proposals; once an old
// epoch's refs reach zero its unique links are retired.
type mesh struct {
	epoch   uint64
	addrs   []string
	peers   []*peerLink // by id; nil at the service's own slot
	refs    int
	retired bool
}

// currentMesh returns the mesh new proposals pin.
func (s *Service) currentMesh() *mesh {
	s.meshMu.Lock()
	defer s.meshMu.Unlock()
	return s.cur
}

// meshForEpoch returns the held mesh for epoch, nil when unknown
// (never adopted, or already retired).
func (s *Service) meshForEpoch(epoch uint64) *mesh {
	s.meshMu.Lock()
	defer s.meshMu.Unlock()
	return s.meshes[epoch]
}

// acquireCurrent pins the current mesh for one proposal.
func (s *Service) acquireCurrent() *mesh {
	s.meshMu.Lock()
	m := s.cur
	m.refs++
	s.meshMu.Unlock()
	return m
}

// releaseMesh unpins one instance (or failed proposal) from its mesh,
// retiring the mesh when it was the last pin on a superseded epoch.
func (s *Service) releaseMesh(m *mesh) {
	s.meshMu.Lock()
	m.refs--
	s.maybeRetireLocked(m)
	s.meshMu.Unlock()
}

// maybeRetireLocked stops and forgets an old epoch's link set once its
// last pinned instance has tombstoned. Links shared with a still-held
// mesh survive; only links unique to the retiring epoch are stopped.
// Called with meshMu held.
func (s *Service) maybeRetireLocked(m *mesh) {
	if m.retired || m.refs > 0 || m == s.cur {
		return
	}
	m.retired = true
	delete(s.meshes, m.epoch)
	var orphans []*peerLink
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		shared := false
		for _, om := range s.meshes {
			for _, op := range om.peers {
				if op == p {
					shared = true
				}
			}
		}
		if !shared {
			orphans = append(orphans, p)
		}
	}
	s.ctr.retiredEpochs.Add(1)
	for _, p := range orphans {
		p.stop()
	}
}

// allLinks returns every distinct link across the held meshes (links
// shared between epochs appear once).
func (s *Service) allLinks() []*peerLink {
	s.meshMu.Lock()
	defer s.meshMu.Unlock()
	seen := make(map[*peerLink]bool, s.n)
	var out []*peerLink
	for _, m := range s.meshes {
		for _, p := range m.peers {
			if p != nil && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// Epoch returns the current membership epoch.
func (s *Service) Epoch() uint64 { return s.ctr.epoch.Load() }

// Reconfigure moves the service to membership m without stopping it:
// the epoch must be strictly greater than the current one and the
// address list the same size as the mesh (replace or re-address
// members; n is fixed). New proposals open on the new epoch
// immediately; instances born earlier keep deciding on their birth
// epoch's links, and the superseded link set is retired once its last
// pinned instance tombstones. The new config is announced to every
// peer of the new mesh (EpochAnnounce), so reconfiguring one survivor
// propagates to all; a replacement process is started separately with
// the new Membership as its Config and dials in under the new epoch.
func (s *Service) Reconfigure(m Membership) error {
	if stopping(s) {
		return ErrServiceClosed
	}
	if m.N != 0 && m.N != len(m.Addrs) {
		return fmt.Errorf("service: reconfigure: N=%d but %d addresses", m.N, len(m.Addrs))
	}
	if len(m.Addrs) != s.n {
		return fmt.Errorf("service: reconfigure: %d addresses, want %d (membership cannot resize the mesh)", len(m.Addrs), s.n)
	}
	if m.AuthKey != nil && !bytes.Equal(m.AuthKey, s.cfg.AuthKey) {
		return fmt.Errorf("service: reconfigure: auth key mismatch (key rotation is not a membership change)")
	}
	if m.Epoch <= s.Epoch() {
		return fmt.Errorf("%w: reconfigure to epoch %d at epoch %d", ErrStaleEpoch, m.Epoch, s.Epoch())
	}
	adopted, err := s.adoptEpoch(m.Epoch, m.Addrs)
	if err != nil {
		return err
	}
	if adopted {
		s.announceEpoch(m.Epoch, m.Addrs)
	}
	return nil
}

// adoptEpoch installs epoch as the current membership if it advances
// the clock, building the new link set: unchanged addresses share the
// previous epoch's link, changed slots get a fresh link (dialed
// immediately when this process is the dialing side). Idempotent for
// already-seen epochs. Returns whether the epoch was newly adopted.
func (s *Service) adoptEpoch(epoch uint64, addrs []string) (bool, error) {
	s.meshMu.Lock()
	cur := s.cur
	if epoch <= cur.epoch {
		s.meshMu.Unlock()
		return false, nil
	}
	if len(addrs) != s.n {
		s.meshMu.Unlock()
		return false, fmt.Errorf("service: epoch %d announce has %d addresses, want %d", epoch, len(addrs), s.n)
	}
	nm := &mesh{epoch: epoch, addrs: append([]string(nil), addrs...), peers: make([]*peerLink, s.n)}
	var fresh []*peerLink
	for id := 0; id < s.n; id++ {
		if id == s.cfg.ID {
			continue
		}
		if p := cur.peers[id]; p != nil && cur.addrs[id] == addrs[id] {
			p.setEpoch(epoch)
			nm.peers[id] = p
			continue
		}
		p := newPeerLink(s, id, addrs[id])
		p.setEpoch(epoch)
		nm.peers[id] = p
		fresh = append(fresh, p)
	}
	s.meshes[epoch] = nm
	s.cur = nm
	s.ctr.epoch.Store(epoch)
	s.ctr.reconfigures.Add(1)
	s.maybeRetireLocked(cur)
	s.meshMu.Unlock()
	for _, p := range fresh {
		s.startLink(p)
		if p.id < s.cfg.ID {
			// We are the dialing side toward the new member; the accept
			// side waits for the replacement (or re-addressed peer) to
			// dial in under the new epoch.
			s.startRedial(p)
		}
	}
	return true, nil
}

// announceEpoch pushes the new membership to every peer of its mesh.
// Receivers adopt it (idempotently), re-announce to their own links —
// one Reconfigure floods the whole mesh — and answer with EpochAck.
func (s *Service) announceEpoch(epoch uint64, addrs []string) {
	m := s.meshForEpoch(epoch)
	if m == nil {
		return
	}
	frame := wire.AppendEpochAnnounce(nil, epoch, addrs)
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.send(frame)
		s.ctr.epochAnnounces.Add(1)
	}
}
