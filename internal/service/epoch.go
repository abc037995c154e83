package service

import (
	"errors"
	"fmt"
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
// service's n. Reconfigure is the only way a process changes its
// membership, and the operator calls it on every survivor: no frame from
// a peer moves the clock, so a faulty member cannot re-address the
// correct ones. A survivor the operator left out stays on its epoch, and
// members that retired that epoch refuse its handshakes
// (Stats.StaleEpochRejects). A replacement process started with the new
// Membership dials in, authenticates under the new epoch (the handshake
// MAC binds the epoch number), and participates in every instance opened
// at its birth epoch or later.

// Membership names one epoch of the mesh configuration.
type Membership struct {
	// Epoch is the monotonically increasing configuration number. A
	// Reconfigure must carry an epoch strictly greater than the
	// service's current one.
	Epoch uint64
	// Addrs lists every process's listen address at this epoch, indexed
	// by process id. Process ids are stable across epochs, and there must
	// be exactly the service's n of them: memberships replace members,
	// they do not resize. The handshake key is the service's
	// Config.AuthKey; key rotation is not part of a membership change.
	Addrs []string
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
// pinned instance tombstones. Unchanged addresses share the previous
// epoch's link; changed slots get a fresh link, dialed at once when this
// process is the dialing side. Nothing is sent to the peers: the
// operator reconfigures every survivor, and a replacement process is
// started separately with the new Membership as its Config and dials in
// under the new epoch.
func (s *Service) Reconfigure(m Membership) error {
	if stopping(s) {
		return ErrServiceClosed
	}
	if len(m.Addrs) != s.n {
		return fmt.Errorf("service: reconfigure: %d addresses, want %d (membership cannot resize the mesh)", len(m.Addrs), s.n)
	}
	s.meshMu.Lock()
	cur := s.cur
	if m.Epoch <= cur.epoch {
		s.meshMu.Unlock()
		return fmt.Errorf("%w: reconfigure to epoch %d at epoch %d", ErrStaleEpoch, m.Epoch, cur.epoch)
	}
	nm := &mesh{epoch: m.Epoch, addrs: append([]string(nil), m.Addrs...), peers: make([]*peerLink, s.n)}
	var fresh []*peerLink
	for id := 0; id < s.n; id++ {
		if id == s.cfg.ID {
			continue
		}
		if p := cur.peers[id]; p != nil && cur.addrs[id] == m.Addrs[id] {
			p.setEpoch(m.Epoch)
			nm.peers[id] = p
			continue
		}
		p := newPeerLink(s, id, m.Addrs[id])
		p.setEpoch(m.Epoch)
		nm.peers[id] = p
		fresh = append(fresh, p)
	}
	s.meshes[m.Epoch] = nm
	s.cur = nm
	s.ctr.epoch.Store(m.Epoch)
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
	return nil
}
