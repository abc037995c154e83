// Package sim provides the process and network model the consensus
// algorithms run on: n processes connected pairwise by reliable FIFO
// channels (the paper's complete-graph model), driven either by a
// deterministic discrete-event engine (asynchronous executions with seeded,
// pluggable delay models — including adversarial schedules) or by a
// lock-step round engine (synchronous executions).
//
// Algorithms are written as event-driven state machines (Node for
// asynchronous protocols, SyncNode for synchronous ones). The live service
// (internal/service) drives the same state machines below this interface,
// mirroring the state-machine-plus-transport architecture of production
// consensus libraries.
package sim

import (
	"math/rand"
	"time"
)

// ProcID identifies a process; processes are numbered 0 … n−1. The paper
// numbers processes p1 … pn; we use zero-based ids throughout the code and
// translate only in rendered output.
type ProcID int

// Message is an opaque protocol payload. Payload types are plain structs
// defined by the algorithm packages; the engine never inspects them.
type Message any

// API is the capability surface a node sees during a callback. Engine
// implementations (the discrete-event and round engines) provide it.
type API interface {
	// ID returns this process's id.
	ID() ProcID
	// N returns the total number of processes.
	N() int
	// Send enqueues a message on the reliable FIFO link to `to`.
	// Sending to self is allowed and is delivered like any other message.
	Send(to ProcID, msg Message)
	// Broadcast sends msg to every process, including the sender. A
	// Byzantine node equivocates by calling Send per recipient instead.
	Broadcast(msg Message)
	// Halt marks this node as terminated (decided). Subsequent deliveries
	// to a halted node are suppressed by the engine.
	Halt()
	// Rand returns this process's seeded PRNG stream (deterministic per
	// engine seed and process id).
	Rand() *rand.Rand
	// Now returns the current virtual (engine) or wall-clock (runtime)
	// time, as an offset from the start of the execution.
	Now() time.Duration
}

// Node is an asynchronous, event-driven process.
//
// Concurrency contract: the engine calls one node at a time, and a node's
// callbacks always observe its own prior effects. State a node shares
// beyond the engine (the Γ-point engine's memo table, for instance) is
// reached concurrently by other runs and by live service shards, so it
// must be thread-safe and produce schedule-independent results.
type Node interface {
	// Init runs once before any delivery; protocols typically send their
	// first messages here. Init calls are serial, in process-id order.
	Init(api API)
	// OnMessage handles one delivered message.
	OnMessage(api API, from ProcID, msg Message)
}

// SyncNode is a lock-step synchronous process: in every round it first
// produces an outbox, then receives the round's inbox.
//
// Concurrency contract: the engine calls one node at a time, and Deliver
// always happens after every node's Outbox for that round. As for Node,
// state shared beyond the engine must be thread-safe.
type SyncNode interface {
	// Outbox returns the messages this node sends in round r (1-based),
	// keyed by recipient. A nil map sends nothing. Byzantine nodes may
	// return arbitrary, per-recipient-different payloads.
	Outbox(r int) map[ProcID]Message
	// Deliver hands the node every message addressed to it in round r,
	// keyed by sender. Processes that sent it nothing are absent.
	Deliver(r int, inbox map[ProcID]Message)
	// Done reports whether the node has terminated (decided). The engine
	// stops when every node is done or the round cap is reached.
	Done() bool
}
