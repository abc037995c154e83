package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
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
	// MaxTime, when positive, stops the run once virtual time passes it.
	MaxTime time.Duration
	// Observer, when non-nil, is invoked after each delivery (for tests
	// and tracing). It must not retain msg. Observers run on the engine
	// goroutine in delivery order regardless of NodeWorkers.
	Observer func(ev Delivery)
	// NodeWorkers bounds how many nodes handle simultaneous events
	// concurrently: 0 selects GOMAXPROCS, 1 forces the serial event loop.
	// Parallelism never reorders an execution — only deliveries sharing
	// one virtual timestamp run concurrently, deliveries to the same node
	// stay in sequence order on one worker, and all messages emitted by a
	// batch are enqueued afterwards in the order the serial loop would
	// have produced (so delay-model PRNG draws, sequence numbers, and
	// FIFO floors are bit-identical to NodeWorkers=1).
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
	halted  atomic.Int64 // nodes that called Halt (atomic: batch workers call Halt concurrently)

	// lookahead is the delay model's promised minimum link delay (0 when
	// the model implements no Lookahead): the conservative safety horizon
	// within which pending events are causally independent, letting the
	// parallel executor batch a time window instead of a single timestamp.
	lookahead time.Duration
	batches   int64 // parallel batches executed (white-box tests)

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
	if la, ok := cfg.Delay.(Lookahead); ok {
		if min := la.MinDelay(); min > 0 {
			e.lookahead = min
		}
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

// Run initializes every node and delivers events until the queue drains,
// every node halts, or a cap is hit. It returns the run statistics; the
// only error is ErrMaxEvents (wrapped with context).
//
// With Config.NodeWorkers ≠ 1, deliveries that share a virtual timestamp
// are fanned across a worker pool; the execution (deliveries, emitted
// messages, statistics, observer sequence) is bit-identical to the serial
// loop — see Config.NodeWorkers.
func (e *Engine) Run() (Stats, error) {
	for i, nd := range e.nodes {
		nd.Init(e.ctxs[i])
	}
	workers := ResolveWorkers(e.cfg.NodeWorkers, len(e.nodes))
	if workers <= 1 {
		return e.runSerial()
	}
	return e.runParallel(workers)
}

// runSerial is the classic one-event-at-a-time loop.
func (e *Engine) runSerial() (Stats, error) {
	for e.halted.Load() < int64(len(e.nodes)) && !e.queue.empty() {
		if e.stats.Delivered+e.stats.Suppressed >= int64(e.cfg.MaxEvents) {
			return e.finish(), fmt.Errorf("%w after %d deliveries", ErrMaxEvents, e.stats.Delivered)
		}
		e.now = e.queue.nextAt()
		if e.cfg.MaxTime > 0 && e.now > e.cfg.MaxTime {
			break
		}
		e.deliver(e.queue.pop())
	}
	return e.finish(), nil
}

// deliver is the serial loop's step: advance the clock to the event, hand
// it to its destination unless that node has halted, and call the observer.
// Sends made inside the callback are enqueued as they happen.
func (e *Engine) deliver(ev event) {
	e.now = ev.at
	api := e.ctxs[ev.to]
	if api.halted {
		e.stats.Suppressed++
		return
	}
	e.stats.Delivered++
	api.now = ev.at
	e.nodes[ev.to].OnMessage(api, ev.from, ev.msg)
	if e.cfg.Observer != nil {
		e.cfg.Observer(Delivery{At: ev.at, From: ev.from, To: ev.to, Msg: ev.msg, Seq: ev.seq})
	}
}

// pendingSend is one message emitted by a node while its delivery batch was
// executing concurrently; it is enqueued during the deterministic merge.
type pendingSend struct {
	to  ProcID
	msg Message
}

// outcome is what one delivery of a concurrent batch left for the merge.
type outcome struct {
	sends     []pendingSend
	delivered bool // false: the destination had halted before this event
	halted    bool // the destination was halted when the callback returned
}

// runParallel drains the event queue in causally independent batches: all
// pending events inside the conservative lookahead window [t, t+L], where t
// is the earliest pending timestamp and L the delay model's promised minimum
// link delay (L = 0 degenerates to same-timestamp batches). No event in the
// window can causally precede another except through order on a shared
// destination: any message generated inside the window arrives at or beyond
// its end (delay ≥ L, FIFO floors only push later), and per-destination
// events stay in (time, sequence) order on a single worker. Sends performed
// inside OnMessage are buffered per event and enqueued in the merge phase
// below, in originating-event order with the originating event's virtual
// time, which reproduces the serial loop's delay-PRNG draws, sequence
// numbers, and FIFO floors exactly.
func (e *Engine) runParallel(workers int) (Stats, error) {
	var (
		batch  []event
		outs   []outcome // by batch index
		dests  []ProcID
		byDest = make([][]int, len(e.nodes)) // dest → batch indices
	)
	// stepDest executes one destination's share of the batch, serially in
	// (time, sequence) order, and empties the group for the next batch. A
	// node halting mid-batch suppresses its own later deliveries, exactly
	// as the serial loop would. Each delivery sees its own event's virtual
	// time (api.now) — with lookahead widening, one batch spans a time
	// window. Built once, outside the batch loop: it captures only the
	// buffers above, by reference.
	stepDest := func(gi int) {
		dest := dests[gi]
		api := e.ctxs[dest]
		for _, bi := range byDest[dest] {
			if api.halted {
				break
			}
			o := &outs[bi]
			o.delivered = true
			api.now = batch[bi].at
			api.buf = &o.sends
			e.nodes[dest].OnMessage(api, batch[bi].from, batch[bi].msg)
			api.buf = nil
			o.halted = api.halted
		}
		byDest[dest] = byDest[dest][:0]
	}
	for e.halted.Load() < int64(len(e.nodes)) && !e.queue.empty() {
		remaining := int64(e.cfg.MaxEvents) - (e.stats.Delivered + e.stats.Suppressed)
		if remaining <= 0 {
			return e.finish(), fmt.Errorf("%w after %d deliveries", ErrMaxEvents, e.stats.Delivered)
		}
		e.now = e.queue.nextAt()
		if e.cfg.MaxTime > 0 && e.now > e.cfg.MaxTime {
			break
		}

		// Pop the batch: every queued event inside the lookahead window
		// (they emerge in (time, sequence) order), capped by the remaining
		// event budget so the MaxEvents error fires at exactly the serial
		// loop's delivery, and by MaxTime so no event the serial loop would
		// refuse is executed.
		horizon := e.now + e.lookahead
		if e.cfg.MaxTime > 0 && horizon > e.cfg.MaxTime {
			horizon = e.cfg.MaxTime
		}
		batch = batch[:0]
		oneDest := true
		for !e.queue.empty() && e.queue.nextAt() <= horizon && int64(len(batch)) < remaining {
			batch = append(batch, e.queue.pop())
			oneDest = oneDest && batch[len(batch)-1].to == batch[0].to
		}
		e.batches++

		// A batch for one destination (without lookahead, nearly every
		// batch is one event) has nothing to run concurrently and takes the
		// serial loop's steps inline: what they send arrives at or beyond
		// the horizon with a later sequence number, after the whole batch.
		if oneDest {
			for _, ev := range batch {
				if e.halted.Load() == int64(len(e.nodes)) {
					break
				}
				e.deliver(ev)
			}
			continue
		}

		// Group by destination, preserving sequence order within a group.
		dests = dests[:0]
		if len(outs) < len(batch) {
			outs = append(outs, make([]outcome, len(batch)-len(outs))...)
		}
		for bi, ev := range batch {
			if len(byDest[ev.to]) == 0 {
				dests = append(dests, ev.to)
			}
			byDest[ev.to] = append(byDest[ev.to], bi)
			outs[bi] = outcome{sends: outs[bi].sends[:0]}
		}
		haltedNow := int(e.halted.Load())
		parallelFor(workers, len(dests), stepDest)

		// Deterministic merge in batch (sequence) order: update statistics,
		// enqueue the buffered sends, and run observers — the same
		// per-event order the serial loop interleaves. The serial loop
		// stops dead the moment the last node halts, so the merge replays
		// halt transitions and abandons the tail of the batch at that
		// point (those events were skipped by their halted destinations —
		// they carry no sends and no counts).
		for bi, ev := range batch {
			if haltedNow == len(e.nodes) {
				break
			}
			// Advance the engine clock to this event before drawing its
			// sends' delays, exactly as the serial loop does.
			e.now = ev.at
			o := &outs[bi]
			if !o.delivered {
				e.stats.Suppressed++
				continue
			}
			e.stats.Delivered++
			for _, ps := range o.sends {
				e.send(ev.to, ps.to, ps.msg)
			}
			if e.cfg.Observer != nil {
				e.cfg.Observer(Delivery{At: ev.at, From: ev.from, To: ev.to, Msg: ev.msg, Seq: ev.seq})
			}
			if o.halted {
				haltedNow++
			}
		}
	}
	return e.finish(), nil
}

// finish stamps the final wall state into the statistics.
func (e *Engine) finish() Stats {
	e.stats.FinalTime = e.now
	e.stats.Halted = int(e.halted.Load())
	return e.stats
}

// Stats returns a snapshot of the statistics so far.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.FinalTime = e.now
	s.Halted = int(e.halted.Load())
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
	// now is the virtual time of the delivery currently being handled by
	// this process. It is per-process (not the engine clock) because a
	// lookahead-widened batch spans a time window: two nodes may
	// concurrently handle events with different timestamps.
	now time.Duration
	// buf, when non-nil, redirects Send into the current delivery's
	// pending-send buffer (set only while this process's callback runs on
	// a batch worker; the engine enqueues the buffer deterministically
	// afterwards).
	buf *[]pendingSend
}

var _ API = (*engineAPI)(nil)

func (a *engineAPI) ID() ProcID { return a.id }

func (a *engineAPI) N() int { return len(a.engine.nodes) }

func (a *engineAPI) Send(to ProcID, msg Message) {
	if a.buf != nil {
		*a.buf = append(*a.buf, pendingSend{to: to, msg: msg})
		return
	}
	a.engine.send(a.id, to, msg)
}

func (a *engineAPI) Broadcast(msg Message) {
	for to := 0; to < len(a.engine.nodes); to++ {
		a.Send(ProcID(to), msg)
	}
}

func (a *engineAPI) Halt() {
	if !a.halted {
		a.halted = true
		a.engine.halted.Add(1)
	}
}

func (a *engineAPI) Rand() *rand.Rand { return a.rng }

func (a *engineAPI) Now() time.Duration { return a.now }
