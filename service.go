package bvc

import (
	"context"
	"net"
	"time"

	"repro/internal/service"
)

// This file is the public face of the multi-tenant live consensus service
// (internal/service): many concurrent instances of the §3.2 asynchronous
// approximate algorithm multiplexed over one pooled full mesh of
// persistent TCP connections. Operator documentation — lifecycle, wire
// protocol, backpressure policy, load testing — lives in docs/SERVICE.md
// and docs/WIRE_FORMAT.md.

// Service errors, re-exported for errors.Is against ServiceResult.Err.
var (
	// ErrServiceClosed is returned by operations on a closed service and
	// reported for instances in flight when it closed.
	ErrServiceClosed = service.ErrServiceClosed
	// ErrServiceDraining is returned by Propose after Drain.
	ErrServiceDraining = service.ErrDraining
	// ErrDuplicateInstance is reported for a Propose reusing a live or
	// recently finished instance id.
	ErrDuplicateInstance = service.ErrDuplicateInstance
	// ErrInstanceTimeout is reported for instances that exceeded
	// ServiceConfig.InstanceTimeout before deciding.
	ErrInstanceTimeout = service.ErrInstanceTimeout
	// ErrStaleEpoch rejects a Reconfigure whose epoch does not advance
	// the membership clock.
	ErrStaleEpoch = service.ErrStaleEpoch
)

// Membership names one epoch of a service mesh's configuration: a
// monotonically numbered address list (process ids are stable; the size
// never changes) plus the shared handshake key. Pass it to Reconfigure
// on a running survivor to replace or re-address members, and to
// NewService (via ServiceConfig.Epoch and Addrs) to start a replacement
// process under the new epoch. See docs/SERVICE.md, "Membership and
// epochs".
type Membership = service.Membership

// SlowPeerPolicy selects the service's behavior when a peer cannot keep up
// with its outbound frame queue.
type SlowPeerPolicy int

// Slow-peer policies.
const (
	// BlockSlowPeer (the default) blocks the sender until the peer's
	// queue drains: backpressure propagates to Propose and the reliable-
	// channel model of the paper is preserved while the peer is up.
	BlockSlowPeer SlowPeerPolicy = iota
	// ShedSlowPeer drops frames to the slow peer and counts them
	// (ServiceStats.SlowPeerSheds). The slow peer then looks partially
	// crashed, which the algorithm tolerates for up to f peers.
	ShedSlowPeer
)

// ServiceTransport abstracts the service's network surface — listener
// creation, outbound dials, and inbound connection adoption — so tests
// and chaos tooling (internal/chaos) can inject faults between
// processes. The zero value of ServiceConfig uses the real network.
type ServiceTransport interface {
	// Listen binds the process's listener.
	Listen(addr string) (net.Listener, error)
	// Dial opens an outbound connection to the given peer id at addr.
	Dial(ctx context.Context, peer int, addr string) (net.Conn, error)
	// Accepted adopts an inbound connection after the handshake
	// identified the peer; the returned conn replaces the original.
	Accepted(peer int, conn net.Conn) net.Conn
}

// ServiceConfig configures one process of a consensus service mesh.
type ServiceConfig struct {
	// Config is the consensus configuration every instance runs (the
	// asynchronous §3.2 variant); its N must equal len(Addrs).
	Config
	// ID is this process's id, indexing Addrs.
	ID int
	// Addrs lists every process's listen address; Addrs[ID] may use port 0
	// (Addr reports the bound address, Establish takes the final list).
	Addrs []string
	// Shards is the instance-shard goroutine count; 0 means
	// min(GOMAXPROCS, 4). Instance id modulo Shards picks the shard.
	Shards int
	// OutboxDepth bounds each peer's outbound frame queue (default 1024).
	OutboxDepth int
	// QueueDepth bounds each shard's inbound frame queue (default 4096).
	QueueDepth int
	// PendingLimit bounds per-instance buffering of frames that arrive
	// before the local Propose (default 4096).
	PendingLimit int
	// SlowPeer selects the full-outbox policy (default BlockSlowPeer).
	SlowPeer SlowPeerPolicy
	// InstanceTimeout fails undecided instances after this long (default
	// 30s). LingerTimeout bounds how long a decided instance keeps
	// serving the protocol for lagging peers (default: InstanceTimeout);
	// one that can no longer send anything is dropped sooner.
	InstanceTimeout time.Duration
	LingerTimeout   time.Duration
	// EstablishTimeout bounds mesh establishment and reconnect attempts
	// (default 10s); DialBackoff/MaxDialBackoff shape dial retry
	// (defaults 25ms/500ms).
	EstablishTimeout time.Duration
	DialBackoff      time.Duration
	MaxDialBackoff   time.Duration
	// Seed feeds the per-instance PRNG streams.
	Seed int64
	// Transport overrides the service's network surface (nil: the real
	// network). Used by tests and the chaos harness to inject faults.
	Transport ServiceTransport
	// AuthKey, when non-empty, enables the mutual HMAC-SHA256 handshake:
	// every connection must prove knowledge of this shared key before it
	// joins the mesh. All processes must agree on the key (or all leave
	// it empty for the plain handshake).
	AuthKey []byte
	// SuspectAfter is the number of consecutive dial failures before a
	// peer is counted in ServiceStats.SuspectedPeers (default 3).
	SuspectAfter int
	// Epoch is the membership epoch this process is born at (0 for a
	// static mesh). A replacement process joining a reconfigured mesh
	// starts with the new Membership's epoch and address list.
	Epoch uint64
}

// ServiceResult is one finished instance as seen by this process.
type ServiceResult struct {
	// Instance is the instance id.
	Instance uint64
	// Epoch is the membership epoch the instance was pinned to at
	// Propose time.
	Epoch uint64
	// Decision is the decided vector (nil when Err is set).
	Decision Vector
	// Rounds is the instance's termination round count.
	Rounds int
	// Elapsed is the local propose-to-decision latency.
	Elapsed time.Duration
	// Err is nil on decision, or one of the Err* sentinels / a protocol
	// failure.
	Err error
}

// ServiceStats is a point-in-time snapshot of one service process's
// counters; see the field docs on the internal/service Stats type for the
// exact semantics of each counter.
type ServiceStats struct {
	// ActiveInstances counts accepted, undecided instances; Lingering counts
	// decided instances still serving lagging peers (both gauges).
	// Quiesced counts decided instances tombstoned as soon as they could
	// never send again, before their linger window closed.
	ActiveInstances, Lingering int64
	Quiesced                   int64
	// Proposed/Decided/TimedOut/Failed count instance outcomes.
	Proposed, Decided, TimedOut, Failed int64
	// FramesIn/FramesOut/BytesIn/BytesOut count wire traffic.
	FramesIn, FramesOut, BytesIn, BytesOut int64
	// SlowPeerSheds/WriteDrops count frames lost to the shed policy and
	// to outbox overflow against a disconnected peer; WriteRetries
	// counts frames resent after a failed write (at-least-once delivery
	// on live links); PendingFrames/PendingDropped track pre-Propose
	// buffering; Reconnects/ReadErrors track link health.
	SlowPeerSheds, WriteDrops     int64
	WriteRetries                  int64
	PendingFrames, PendingDropped int64
	Reconnects, ReadErrors        int64
	// OutOfRangeRounds counts consensus messages dropped for naming a
	// round outside [1, R] — no correct process sends one.
	OutOfRangeRounds int64
	// DialFailures/OutboxStalls feed the per-peer suspicion ladder;
	// LingerExtensions counts partition-aware linger window extensions;
	// AuthFailures counts inbound connections the keyed handshake
	// rejected.
	DialFailures, OutboxStalls int64
	LingerExtensions           int64
	AuthFailures               int64
	// SuspectedPeers is the number of peers currently suspected (gauge).
	SuspectedPeers int
	// QueueDepth is the total frames currently queued toward peers.
	QueueDepth int
	// Epoch is the current membership epoch (gauge); Reconfigures counts
	// adopted membership changes; EpochAnnounces/EpochAcks count the
	// config-propagation frames sent/acknowledged; StaleEpochRejects
	// counts handshakes refused for claiming an unheld epoch;
	// RetiredEpochs counts superseded link sets torn down after their
	// last pinned instance tombstoned.
	Epoch                     uint64
	Reconfigures              int64
	EpochAnnounces, EpochAcks int64
	StaleEpochRejects         int64
	RetiredEpochs             int64
}

// Service is one process of a multi-tenant live consensus mesh: Propose
// opens instances concurrently from any goroutine, and all instances share
// the process's n−1 pooled connections. Construct with NewService on every
// process, exchange addresses out of band, then Establish.
type Service struct {
	inner *service.Service
}

// NewService validates the configuration, binds the listener, and starts
// the service's shard pool and connection writers; Establish builds the
// mesh.
func NewService(cfg ServiceConfig) (*Service, error) {
	acfg, err := cfg.Config.asyncConfig()
	if err != nil {
		return nil, err
	}
	inner, err := service.New(service.Config{
		Node:             acfg,
		ID:               cfg.ID,
		Addrs:            cfg.Addrs,
		Shards:           cfg.Shards,
		OutboxDepth:      cfg.OutboxDepth,
		QueueDepth:       cfg.QueueDepth,
		PendingLimit:     cfg.PendingLimit,
		SlowPeer:         service.Policy(cfg.SlowPeer),
		InstanceTimeout:  cfg.InstanceTimeout,
		LingerTimeout:    cfg.LingerTimeout,
		EstablishTimeout: cfg.EstablishTimeout,
		DialBackoff:      cfg.DialBackoff,
		MaxDialBackoff:   cfg.MaxDialBackoff,
		Seed:             cfg.Seed,
		Transport:        cfg.Transport,
		AuthKey:          cfg.AuthKey,
		SuspectAfter:     cfg.SuspectAfter,
		Epoch:            cfg.Epoch,
	})
	if err != nil {
		return nil, err
	}
	return &Service{inner: inner}, nil
}

// Addr returns the bound listen address (useful with port-0 configs).
func (s *Service) Addr() string { return s.inner.Addr() }

// Establish connects the full mesh and returns once every link is up or
// the establish timeout expires. A non-nil addrs overrides the
// construction-time address list (the port-0 flow).
func (s *Service) Establish(ctx context.Context, addrs []string) error {
	return s.inner.Establish(ctx, addrs)
}

// Propose opens consensus instance id with this process's input. Every
// process of the mesh must eventually propose the same id. The result is
// delivered exactly once on the returned channel.
func (s *Service) Propose(id uint64, input Vector) (<-chan ServiceResult, error) {
	ch, err := s.inner.Propose(id, toGeometry(input))
	if err != nil {
		return nil, err
	}
	out := make(chan ServiceResult, 1)
	go func() {
		r := <-ch
		out <- ServiceResult{
			Instance: r.Instance,
			Epoch:    r.Epoch,
			Decision: fromGeometry(r.Decision),
			Rounds:   r.Rounds,
			Elapsed:  r.Elapsed,
			Err:      r.Err,
		}
	}()
	return out, nil
}

// Drain refuses new proposals, announces the wind-down to peers, and
// returns once every in-flight instance finished or ctx expired.
func (s *Service) Drain(ctx context.Context) error { return s.inner.Drain(ctx) }

// Close releases the listener, connections, and goroutines; in-flight
// instances fail with ErrServiceClosed. Drain first for a graceful stop.
func (s *Service) Close() error { return s.inner.Close() }

// Err returns the first background transport error the service observed
// (nil while healthy; peer disconnects and reconnects are not errors).
func (s *Service) Err() error { return s.inner.Err() }

// Stats returns a snapshot of the service's counters.
func (s *Service) Stats() ServiceStats {
	st := s.inner.Stats()
	return ServiceStats{
		ActiveInstances:  st.ActiveInstances,
		Lingering:        st.Lingering,
		Quiesced:         st.Quiesced,
		Proposed:         st.Proposed,
		Decided:          st.Decided,
		TimedOut:         st.TimedOut,
		Failed:           st.Failed,
		FramesIn:         st.FramesIn,
		FramesOut:        st.FramesOut,
		BytesIn:          st.BytesIn,
		BytesOut:         st.BytesOut,
		SlowPeerSheds:    st.SlowPeerSheds,
		WriteDrops:       st.WriteDrops,
		WriteRetries:     st.WriteRetries,
		PendingFrames:    st.PendingFrames,
		PendingDropped:   st.PendingDropped,
		Reconnects:       st.Reconnects,
		ReadErrors:       st.ReadErrors,
		OutOfRangeRounds: st.OutOfRangeRounds,
		DialFailures:     st.DialFailures,
		OutboxStalls:     st.OutboxStalls,
		LingerExtensions: st.LingerExtensions,
		AuthFailures:     st.AuthFailures,
		SuspectedPeers:   st.SuspectedPeers,
		QueueDepth:       st.QueueDepth,

		Epoch:             st.Epoch,
		Reconfigures:      st.Reconfigures,
		EpochAnnounces:    st.EpochAnnounces,
		EpochAcks:         st.EpochAcks,
		StaleEpochRejects: st.StaleEpochRejects,
		RetiredEpochs:     st.RetiredEpochs,
	}
}

// KillConn severs the current connection to the given peer, if any; the
// pool redials and the mesh self-heals. A fault-injection hook for tests
// and the chaos harness.
func (s *Service) KillConn(peer int) { s.inner.KillConn(peer) }

// Epoch returns the current membership epoch.
func (s *Service) Epoch() uint64 { return s.inner.Epoch() }

// Reconfigure moves the mesh to membership m without stopping the
// service: m.Epoch must exceed the current epoch and m.Addrs must be the
// same size as the mesh (replace or re-address members; n is fixed).
// New proposals pin the new epoch immediately; in-flight and lingering
// instances keep deciding on their birth epoch's links, whose set is
// retired once its last pinned instance tombstones. The new config
// propagates to every peer via EpochAnnounce, so reconfiguring one
// survivor reconfigures the mesh; start the replacement process
// separately with the new epoch and address list.
func (s *Service) Reconfigure(m Membership) error { return s.inner.Reconfigure(m) }
