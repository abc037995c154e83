package broadcast

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/sim"
)

// RBCPhase is the protocol phase of an RBC message.
type RBCPhase int

// Bracha protocol phases.
const (
	RBCInit RBCPhase = iota + 1
	RBCEcho
	RBCReady
)

func (p RBCPhase) String() string {
	switch p {
	case RBCInit:
		return "init"
	case RBCEcho:
		return "echo"
	case RBCReady:
		return "ready"
	default:
		return fmt.Sprintf("RBCPhase(%d)", int(p))
	}
}

// RBCMsg is a Bracha reliable-broadcast message for the instance identified
// by (Origin, Tag). Tag carries the asynchronous round number in the BVC
// protocols.
type RBCMsg struct {
	Phase  RBCPhase
	Origin sim.ProcID
	Tag    int
	Value  geometry.Vector
}

// RBCDelivery reports one completed reliable broadcast.
type RBCDelivery struct {
	Origin sim.ProcID
	Tag    int
	Value  geometry.Vector
}

// DefaultHorizon is the largest tag (one layer up: round) an RBC or
// aad.Coordinator keeps state for until SetHorizon says otherwise. Protocol
// nodes set their termination round count; the default bounds callers that
// drive the state machines directly (benchmarks, adversaries, tests).
const DefaultHorizon = 1 << 12

// RBC multiplexes Bracha reliable-broadcast instances keyed by (origin,
// tag). It guarantees, for n > 3f with at most f Byzantine processes:
//
//   - integrity: per instance, a correct process delivers at most one value;
//   - agreement: no two correct processes deliver different values for the
//     same instance;
//   - validity: if the origin is correct, every correct process eventually
//     delivers the origin's value;
//   - totality: if any correct process delivers, every correct process
//     eventually delivers.
//
// These are exactly AAD Properties 2 and 3 plus the liveness the witness
// mechanism needs. RBC is a pure state machine: Handle returns the messages
// to broadcast, and the caller owns actual transmission (engine, runtime,
// or test harness).
//
// Ownership: a value is copied once, on first sight, into the instance that
// tallies it, and that copy is never rewritten. Everything the RBC emits
// aliases it: callers may retain emitted values but never write to them,
// and may reuse the vector they passed in once Broadcast or Handle returns.
// The slices Handle returns are the RBC's scratch, valid until its next call.
//
// Retirement: an instance that has echoed, readied and delivered can never
// send or deliver again. Once all n instances of a tag have, the tag
// retires — its slab is released and its later messages are dropped after
// the validity checks — so a process keeps state only for tags it could
// still act on.
type RBC struct {
	n, f    int
	self    sim.ProcID
	dim     int
	horizon int // messages with a tag outside [0, horizon] are dropped
	// tags holds one slab of all n origins' instances per tag, created on
	// the tag's first message and indexed by tag.
	tags    []rbcTag
	retired int // tags whose every instance finished

	out [1]RBCMsg // Handle emits at most one message and one delivery
	del [1]RBCDelivery
}

// rbcTag is one tag's slab and the count of its instances that finished:
// echoed, readied and delivered, so that no message can make them send or
// deliver again. Once all n have, the slab is released and the tag retired.
type rbcTag struct {
	insts    []rbcInst
	finished int
}

type rbcInst struct {
	echoed    bool
	readied   bool
	delivered bool
	// from marks processes whose echo ([:n]) or ready ([n:]) was already
	// counted: correct processes send at most one of each, and counting a
	// Byzantine process once per phase is strictly harder for the
	// adversary, preserving quorum-intersection safety.
	from []bool
	// vals holds the per-distinct-value tallies. Correct instances carry one
	// value, which lives in the tag's slab — the tally in vals' first
	// element, the vector in slot; equivocation adds at most a handful on
	// the heap, so a linear scan beats a map.
	vals []rbcVal
	slot geometry.Vector // empty, capacity dim
}

// rbcVal tallies one distinct broadcast value within an instance. Values
// are told apart by exact component-wise == on finite floats (−0 equals
// +0): vote counting must be exact, not tolerance-based, or near-identical
// Byzantine values could split quorums.
type rbcVal struct {
	value   geometry.Vector // the instance's own copy; never rewritten
	echoes  int
	readies int
}

// NewRBC creates an RBC multiplexer for process self among n processes
// carrying dim-dimensional vector values, with horizon DefaultHorizon.
func NewRBC(n, f int, self sim.ProcID, dim int) (*RBC, error) {
	if f < 0 || n <= 3*f {
		return nil, fmt.Errorf("broadcast: RBC requires n > 3f, got n=%d f=%d", n, f)
	}
	if int(self) < 0 || int(self) >= n {
		return nil, fmt.Errorf("broadcast: self=%d out of range n=%d", self, n)
	}
	if dim < 1 {
		return nil, fmt.Errorf("broadcast: invalid value dimension %d", dim)
	}
	return &RBC{n: n, f: f, self: self, dim: dim, horizon: DefaultHorizon}, nil
}

// SetHorizon makes h the largest tag the RBC keeps state for: state is
// created for any tag a peer names, so an unbounded tag space would let one
// Byzantine link allocate a slab per message.
func (r *RBC) SetHorizon(h int) { r.horizon = h }

// echoQuorum is ⌊(n+f)/2⌋+1: two echo quorums for different values must
// intersect in a correct process, which echoes only once.
func (r *RBC) echoQuorum() int { return (r.n+r.f)/2 + 1 }

// inst returns origin's instance for tag, creating the tag's slab on first
// use, or nil once the tag is retired. The caller has checked both ranges.
func (r *RBC) inst(origin sim.ProcID, tag int) *rbcInst {
	for len(r.tags) <= tag {
		r.tags = append(r.tags, rbcTag{})
	}
	t := &r.tags[tag]
	if t.insts == nil {
		if t.finished == r.n {
			return nil
		}
		insts := make([]rbcInst, r.n)
		from := make([]bool, 2*r.n*r.n)
		vals := make([]rbcVal, r.n)
		vecs := make(geometry.Vector, r.n*r.dim)
		for i := range insts {
			insts[i].from = from[2*r.n*i : 2*r.n*(i+1)]
			insts[i].vals = vals[i : i : i+1]
			insts[i].slot = vecs[r.dim*i : r.dim*i : r.dim*(i+1)]
		}
		t.insts = insts
	}
	return &t.insts[origin]
}

// finish counts one of tag's instances finished. It is called where an
// instance's last flag flips, so each instance is counted once; the last of
// the n releases the slab. Emitted values alias the slab's vectors, so
// whatever still holds one keeps that storage, not the tallies, alive.
func (r *RBC) finish(tag int) {
	t := &r.tags[tag]
	t.finished++
	if t.finished == r.n {
		t.insts = nil
		r.retired++
	}
}

// RetiredTags counts the retired tags.
func (r *RBC) RetiredTags() int { return r.retired }

// tally returns the tally of value, registering it (with the instance's one
// copy of the vector) on first sight. The pointer is valid until the next
// tally call on this instance.
func (i *rbcInst) tally(value geometry.Vector) *rbcVal {
	for idx := range i.vals {
		if i.vals[idx].value.Equal(value) {
			return &i.vals[idx]
		}
	}
	own := i.slot
	if len(i.vals) == 0 {
		own = append(own, value...) // the slab slot: no allocation
	} else {
		own = value.Clone()
	}
	i.vals = append(i.vals, rbcVal{value: own})
	return &i.vals[len(i.vals)-1]
}

func (r *RBC) valid(tag int, value geometry.Vector) bool {
	return tag >= 0 && tag <= r.horizon && value.Dim() == r.dim && value.IsFinite()
}

// Broadcast starts this process's own instance for the given tag and
// returns the INIT message to send to every process (including self).
func (r *RBC) Broadcast(tag int, value geometry.Vector) (RBCMsg, error) {
	if !r.valid(tag, value) {
		return RBCMsg{}, fmt.Errorf("broadcast: invalid RBC value (tag %d, horizon %d; dim %d, want %d)", tag, r.horizon, value.Dim(), r.dim)
	}
	// Registered with zero tallies, so the INIT, its loopback and the ECHO
	// all alias the one copy. The own instance finishes only on the INIT's
	// loopback, so its tag cannot have retired unless this is a second
	// Broadcast.
	inst := r.inst(r.self, tag)
	if inst == nil {
		return RBCMsg{}, fmt.Errorf("broadcast: tag %d already retired", tag)
	}
	v := inst.tally(value)
	return RBCMsg{Phase: RBCInit, Origin: r.self, Tag: tag, Value: v.value}, nil
}

// Handle processes one message from the network. It returns protocol
// messages to broadcast to all processes and any deliveries triggered; both
// slices are valid until the next Handle call. Malformed, out-of-horizon or
// equivocating messages, and messages for a retired tag, are dropped or
// ignored per protocol.
func (r *RBC) Handle(from sim.ProcID, msg RBCMsg) ([]RBCMsg, []RBCDelivery) {
	if int(msg.Origin) < 0 || int(msg.Origin) >= r.n || int(from) < 0 || int(from) >= r.n {
		return nil, nil
	}
	if !r.valid(msg.Tag, msg.Value) || msg.Phase < RBCInit || msg.Phase > RBCReady {
		return nil, nil
	}
	inst := r.inst(msg.Origin, msg.Tag)
	if inst == nil {
		return nil, nil
	}
	var ready, deliver *rbcVal

	switch msg.Phase {
	case RBCInit:
		// Only the origin itself may INIT its instance; first INIT wins.
		if from != msg.Origin || inst.echoed {
			return nil, nil
		}
		inst.echoed = true
		r.out[0] = RBCMsg{Phase: RBCEcho, Origin: msg.Origin, Tag: msg.Tag, Value: inst.tally(msg.Value).value}
		if inst.readied && inst.delivered {
			r.finish(msg.Tag)
		}
		return r.out[:], nil

	case RBCEcho:
		if inst.from[from] {
			return nil, nil
		}
		inst.from[from] = true
		c := inst.tally(msg.Value)
		c.echoes++
		if c.echoes >= r.echoQuorum() && !inst.readied {
			ready = c
		}

	case RBCReady:
		if inst.from[r.n+int(from)] {
			return nil, nil
		}
		inst.from[r.n+int(from)] = true
		c := inst.tally(msg.Value)
		c.readies++
		if c.readies >= r.f+1 && !inst.readied {
			ready = c
		}
		if c.readies >= 2*r.f+1 && !inst.delivered {
			deliver = c
		}
	}

	var out []RBCMsg
	var deliveries []RBCDelivery
	if ready != nil {
		inst.readied = true
		r.out[0] = RBCMsg{Phase: RBCReady, Origin: msg.Origin, Tag: msg.Tag, Value: ready.value}
		out = r.out[:]
		if inst.echoed && inst.delivered {
			r.finish(msg.Tag)
		}
	}
	if deliver != nil {
		inst.delivered = true
		r.del[0] = RBCDelivery{Origin: msg.Origin, Tag: msg.Tag, Value: deliver.value}
		deliveries = r.del[:]
		if inst.echoed && inst.readied {
			r.finish(msg.Tag)
		}
	}
	return out, deliveries
}
