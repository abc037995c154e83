package bvc

import (
	"time"

	"repro/internal/service"
)

// This file is the public face of the multi-tenant live consensus service
// (internal/service): many concurrent instances of the §3.2 asynchronous
// approximate algorithm multiplexed over one pooled full mesh of
// persistent TCP connections. The types are the service's own, re-exported;
// only the configuration is translated. Operator documentation —
// lifecycle, wire protocol, backpressure, load testing — lives in
// docs/SERVICE.md and docs/WIRE_FORMAT.md.

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
	// the membership clock, and inbound handshakes under an epoch the
	// process does not hold.
	ErrStaleEpoch = service.ErrStaleEpoch
)

// Service is one process of a multi-tenant live consensus mesh: Propose
// opens instances concurrently from any goroutine, and all instances share
// the process's n−1 pooled connections. Construct with NewService on every
// process, exchange addresses out of band, then Establish, which returns
// once the mesh is complete or its ctx ends.
type Service = service.Service

// ServiceResult is one finished instance as seen by this process: its
// Decision, or Err set to one of the Err* sentinels or a protocol failure.
type ServiceResult = service.Result

// ServiceStats is a point-in-time snapshot of one service process's
// counters and gauges.
type ServiceStats = service.Stats

// Membership names one epoch of a service mesh's configuration: a
// monotonically numbered address list (process ids are stable; the size
// never changes). Pass it to Reconfigure on every running survivor to
// replace or re-address members — a process changes membership only by
// that call, never on a peer's word — and to NewService (via
// ServiceConfig.Epoch and Addrs) to start a replacement process under the
// new epoch. See docs/SERVICE.md, "Drain, membership epochs, and live
// replacement".
type Membership = service.Membership

// ServiceTransport abstracts the service's network surface — listener
// creation, outbound dials, and inbound connection adoption — so tests
// and chaos tooling (internal/chaos) can inject faults between
// processes. The zero value of ServiceConfig uses the real network.
type ServiceTransport = service.Transport

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
	// OutboxDepth bounds each peer's outbound frame queue (default 1024).
	// A full queue blocks the sender while the peer is connected —
	// backpressure that reaches Propose — and drops frames
	// (ServiceStats.WriteDrops) while it is down. Links are not the paper's
	// reliable channels: frames arrive in queue order, a resent batch may
	// repeat some, and a reset connection or this overflow against a down
	// peer loses them (ROADMAP's links item).
	OutboxDepth int
	// InstanceTimeout fails undecided instances after this long (default
	// 30s). LingerTimeout bounds how long a decided instance keeps
	// serving the protocol for lagging peers (default: InstanceTimeout);
	// one that can no longer send anything is dropped sooner.
	InstanceTimeout time.Duration
	LingerTimeout   time.Duration
	// Seed feeds the per-link redial-jitter streams.
	Seed int64
	// Transport overrides the service's network surface (nil: the real
	// network). Used by tests and the chaos harness to inject faults.
	Transport ServiceTransport
	// AuthKey, when non-empty, enables the mutual HMAC-SHA256 handshake:
	// every connection must prove knowledge of this shared key before it
	// joins the mesh. All processes must agree on the key (or all leave
	// it empty for the plain handshake).
	AuthKey []byte
	// Epoch is the membership epoch this process is born at (0 for a
	// static mesh). A replacement process joining a reconfigured mesh
	// starts with the new Membership's epoch and address list.
	Epoch uint64
}

// NewService validates the configuration, binds the listener, and starts
// the service's instance loop and connection writers; Establish builds the
// mesh.
func NewService(cfg ServiceConfig) (*Service, error) {
	acfg, err := cfg.Config.asyncConfig()
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{
		Node:            acfg,
		ID:              cfg.ID,
		Addrs:           cfg.Addrs,
		OutboxDepth:     cfg.OutboxDepth,
		InstanceTimeout: cfg.InstanceTimeout,
		LingerTimeout:   cfg.LingerTimeout,
		Seed:            cfg.Seed,
		Transport:       cfg.Transport,
		AuthKey:         cfg.AuthKey,
		Epoch:           cfg.Epoch,
	})
}
