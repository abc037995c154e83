package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Engine defaults; overridable via Config.
const (
	defaultMaxEvents = 5_000_000
	// fifoNudge is the minimum spacing enforced between deliveries on the
	// same directed link, preserving the paper's FIFO channel assumption
	// under randomized delays.
	fifoNudge = time.Nanosecond
)

// Config parameterizes a discrete-event execution.
type Config struct {
	// N is the number of processes; must equal len(nodes) at NewEngine.
	N int
	// Delay is the network delay model; defaults to ConstantDelay{1ms}.
	Delay DelayModel
	// Seed seeds all engine randomness (delays and per-process PRNGs).
	Seed int64
	// MaxEvents caps total deliveries as a runaway-protocol guard.
	MaxEvents int
	// MaxTime, when positive, stops the run before the first event due
	// after it, so no delivery happens past MaxTime.
	MaxTime time.Duration
	// Observer, when non-nil, is invoked after each delivery (for tests
	// and tracing), in delivery order. It must not retain msg.
	Observer func(ev Delivery)
	// NodeWorkers is ignored: the engine steps one node at a time.
	//
	// Deprecated: kept only because the bench/ module still sets it;
	// delete it together with that use.
	NodeWorkers int
}

// Delivery describes one delivered message (for observers).
type Delivery struct {
	At   time.Duration
	From ProcID
	To   ProcID
	Msg  Message
	Seq  uint64
}

// Stats summarizes a completed run.
type Stats struct {
	// Sent counts messages enqueued; Delivered counts messages handed to
	// (non-halted) nodes.
	Sent      int64
	Delivered int64
	// Suppressed counts messages addressed to already-halted nodes.
	Suppressed int64
	// FinalTime is the virtual clock when the run ended.
	FinalTime time.Duration
	// Halted is how many nodes called Halt.
	Halted int
}

// ErrMaxEvents is returned when the delivery cap is hit, which indicates a
// non-terminating protocol or a cap set too low.
var ErrMaxEvents = errors.New("sim: max event count exceeded")

// Engine is a deterministic discrete-event executor for asynchronous
// message-passing protocols over reliable FIFO links.
type Engine struct {
	cfg   Config
	nodes []Node
	ctxs  []*engineAPI

	queue   laneQueue
	seq     uint64
	now     time.Duration
	lastArr []time.Duration // per link (from*N+to): latest scheduled arrival
	delay   DelayModel
	rngNet  *rand.Rand
	halted  int // nodes that called Halt

	stats Stats
}

// NewEngine validates the configuration and builds an engine over the given
// nodes (one per process id, in order).
func NewEngine(cfg Config, nodes []Node) (*Engine, error) {
	if cfg.N != len(nodes) {
		return nil, fmt.Errorf("sim: config N=%d but %d nodes", cfg.N, len(nodes))
	}
	if cfg.N <= 0 {
		return nil, errors.New("sim: need at least one node")
	}
	for i, nd := range nodes {
		if nd == nil {
			return nil, fmt.Errorf("sim: node %d is nil", i)
		}
	}
	if cfg.Delay == nil {
		cfg.Delay = ConstantDelay{D: time.Millisecond}
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = defaultMaxEvents
	}
	e := &Engine{
		cfg:    cfg,
		nodes:  nodes,
		delay:  cfg.Delay,
		rngNet: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_ca11)),

		queue:   newLaneQueue(cfg.N),
		lastArr: make([]time.Duration, cfg.N*cfg.N),
	}
	e.ctxs = make([]*engineAPI, cfg.N)
	for i := range nodes {
		e.ctxs[i] = &engineAPI{
			engine: e,
			id:     ProcID(i),
			rng:    rand.New(rand.NewSource(cfg.Seed ^ (0x9e3779b9 * int64(i+1)))),
		}
	}
	return e, nil
}

// Run initializes every node and delivers events one at a time, in
// (time, sequence) order, until the queue drains, every node halts, or a
// cap is hit. It returns the run statistics; the only error is
// ErrMaxEvents (wrapped with context).
func (e *Engine) Run() (Stats, error) {
	for i, nd := range e.nodes {
		nd.Init(e.ctxs[i])
	}
	for e.halted < len(e.nodes) && !e.queue.empty() {
		if e.stats.Delivered+e.stats.Suppressed >= int64(e.cfg.MaxEvents) {
			return e.Stats(), fmt.Errorf("%w after %d deliveries", ErrMaxEvents, e.stats.Delivered)
		}
		if e.cfg.MaxTime > 0 && e.queue.nextAt() > e.cfg.MaxTime {
			break
		}
		e.deliver(e.queue.pop())
	}
	return e.Stats(), nil
}

// deliver advances the clock to the event, hands it to its destination
// unless that node has halted, and calls the observer. Sends made inside
// the callback are enqueued as they happen.
func (e *Engine) deliver(ev event) {
	e.now = ev.at
	api := e.ctxs[ev.to]
	if api.halted {
		e.stats.Suppressed++
		return
	}
	e.stats.Delivered++
	e.nodes[ev.to].OnMessage(api, ev.from, ev.msg)
	if e.cfg.Observer != nil {
		e.cfg.Observer(Delivery{At: ev.at, From: ev.from, To: ev.to, Msg: ev.msg, Seq: ev.seq})
	}
}

// Stats returns a snapshot of the statistics so far.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.FinalTime = e.now
	s.Halted = e.halted
	return s
}

// send schedules a message respecting the FIFO ordering of the link.
func (e *Engine) send(from, to ProcID, msg Message) {
	if int(to) < 0 || int(to) >= len(e.nodes) {
		// Messages to non-existent processes are dropped; a Byzantine node
		// gains nothing by addressing them.
		return
	}
	d := e.delay.Delay(from, to, e.now, e.rngNet)
	if d < 0 {
		d = 0
	}
	at := e.now + d
	link := int(from)*len(e.nodes) + int(to)
	if floor := e.lastArr[link] + fifoNudge; at < floor {
		at = floor
	}
	e.lastArr[link] = at
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, from: from, to: to, msg: msg})
	e.stats.Sent++
}

// engineAPI implements API for one process inside the engine.
type engineAPI struct {
	engine *Engine
	id     ProcID
	rng    *rand.Rand
	halted bool
}

var _ API = (*engineAPI)(nil)

func (a *engineAPI) ID() ProcID { return a.id }

func (a *engineAPI) N() int { return len(a.engine.nodes) }

func (a *engineAPI) Send(to ProcID, msg Message) { a.engine.send(a.id, to, msg) }

func (a *engineAPI) Broadcast(msg Message) {
	for to := 0; to < len(a.engine.nodes); to++ {
		a.Send(ProcID(to), msg)
	}
}

func (a *engineAPI) Halt() {
	if !a.halted {
		a.halted = true
		a.engine.halted++
	}
}

func (a *engineAPI) Rand() *rand.Rand { return a.rng }

func (a *engineAPI) Now() time.Duration { return a.engine.now }
