package service

import (
	"errors"
	"fmt"
)

// Epoch-numbered dynamic membership. A service is born at Config.Epoch
// (0 for a static mesh) and can be moved to successor memberships while
// running: Reconfigure installs a higher-numbered address list. There is
// exactly one link per peer id for the service's whole life, as in the
// paper's model of one reliable channel between each pair of processes;
// a membership change re-addresses the links whose address changed and
// leaves the others alone. Receivers route frames by instance id alone,
// so instances in flight across a change keep deciding: their later
// frames to a replaced slot reach the replacement, which buffers or
// drops them like any frames for an instance it has not opened.
//
// Membership size is fixed: a reconfiguration replaces or re-addresses
// members (the dead-process recovery path), it does not grow or shrink
// n, because every instance's consensus configuration is built for the
// service's n. Reconfigure is the only way a process changes its
// membership, and the operator calls it on every survivor: no frame from
// a peer moves the clock, so a faulty member cannot re-address the
// correct ones. A handshake must name the acceptor's current epoch, so a
// survivor the operator left out, or a replaced process still running,
// is refused by every member that moved on (Stats.StaleEpochRejects). A
// replacement process started with the new Membership dials in and
// authenticates under the new epoch (the handshake MAC binds the epoch
// number).

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
	// epoch, and inbound handshakes naming any epoch but this process's
	// current one (counted in Stats.StaleEpochRejects).
	ErrStaleEpoch = errors.New("service: stale membership epoch")
)

// Epoch returns the current membership epoch.
func (s *Service) Epoch() uint64 { return s.ctr.epoch.Load() }

// Reconfigure moves the service to membership m without stopping it:
// the epoch must be strictly greater than the current one and the
// address list the same size as the mesh (replace or re-address
// members; n is fixed). Each peer's one link is re-addressed in place
// (peerLink.readdress): an unchanged address keeps its connection, a
// changed one drops it and, when this process is the dialing side,
// dials the new address at once. Nothing is sent to the peers: the
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
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if cur := s.Epoch(); m.Epoch <= cur {
		return fmt.Errorf("%w: reconfigure to epoch %d at epoch %d", ErrStaleEpoch, m.Epoch, cur)
	}
	// The epoch moves before any address: from here install refuses a
	// connection whose handshake named the old epoch, and one installed
	// earlier is kept or dropped by readdress like every other.
	s.ctr.epoch.Store(m.Epoch)
	s.ctr.reconfigures.Add(1)
	for id, p := range s.peers {
		if p != nil {
			p.readdress(m.Addrs[id], true)
		}
	}
	return nil
}
