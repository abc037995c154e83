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
// The slices Handle returns are the RBC's scratch, valid until its next
// call; a caller done with them clears them, or the last emission keeps
// alive the slab its value aliases after the release below.
//
// Retirement: an instance that has echoed, readied and delivered has
// finished — it can never send or deliver again — and its later messages
// are dropped after the validity checks. An instance is touched once it has
// tallied a value; one that is untouched holds nothing but zeros. A tag's
// slab holds all n instances from the tag's first touch until at least n−f
// instances are touched and every touched one has finished; then it is
// released, and the tag keeps one bit per origin saying which finished. A
// later message for an origin that was untouched at the release finds a
// fresh slab, made as the first one was: its instance starts from the zeros
// it had. So a tag behind a silent origin holds bits, not a slab. The n−f
// floor is what a round needs anywhere it completes — n−f delivered
// broadcasts, all touched here — so every tag of a decided process reaches
// it; below it more origins are surely yet to start, and releasing the
// slab early would only make them a second one. Once all n instances of a
// tag have finished the tag is retired (RetiredTags).
type RBC struct {
	n, f    int
	self    sim.ProcID
	dim     int
	horizon int // messages with a tag outside [0, horizon] are dropped
	// tags holds each named tag's state, indexed by tag; done holds the
	// tags' finished-origin bits, words uint64s per tag, in the same order.
	tags    []rbcTag
	done    []uint64
	words   int
	retired int // tags whose every instance finished

	out [1]RBCMsg // Handle emits at most one message and one delivery
	del [1]RBCDelivery
}

// rbcTag is one tag's slab of all n origins' instances, indexed by origin
// — nil until a touch needs it and once released — and the counts that
// decide when it goes: touched counts the instances that have tallied a
// value, finished those that have echoed, readied and delivered. The finish
// that makes finished reach touched, once touched is at least n−f,
// releases the slab.
type rbcTag struct {
	insts    []rbcInst
	touched  int32
	finished int32
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
	return &RBC{n: n, f: f, self: self, dim: dim, horizon: DefaultHorizon, words: (n + 63) / 64}, nil
}

// SetHorizon makes h the largest tag the RBC keeps state for: state is
// created for any tag a peer names, so an unbounded tag space would let one
// Byzantine link allocate a slab per message.
func (r *RBC) SetHorizon(h int) { r.horizon = h }

// echoQuorum is ⌊(n+f)/2⌋+1: two echo quorums for different values must
// intersect in a correct process, which echoes only once.
func (r *RBC) echoQuorum() int { return (r.n+r.f)/2 + 1 }

// inst returns origin's instance for tag, or nil once it has finished. The
// caller has checked both ranges, and its message touches the instance: a
// touch when the tag holds no slab — its first, or one after the release —
// makes one.
func (r *RBC) inst(origin sim.ProcID, tag int) (*rbcTag, *rbcInst) {
	if tag >= len(r.tags) {
		r.grow(tag)
	}
	if w, bit := r.doneBit(tag, origin); *w&bit != 0 {
		return nil, nil
	}
	t := &r.tags[tag]
	if t.insts == nil {
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
	return t, &t.insts[origin]
}

// doneBit locates the bit of done that says origin's instance of tag
// finished.
func (r *RBC) doneBit(tag int, origin sim.ProcID) (*uint64, uint64) {
	return &r.done[tag*r.words+int(origin)>>6], 1 << (uint(origin) & 63)
}

// eagerTags is the largest horizon for which the tag table is sized once,
// at horizon+1 tags, on the first tag named: a protocol node's horizon is
// its termination round count and it names every round up to it. Past it
// the table grows with the tags named, so a caller on DefaultHorizon that
// names a few tags does not pay for 4 097.
const eagerTags = 256

// grow extends the tag table and its done bits to cover tag: at once to
// horizon+1 tags when the horizon is at most eagerTags, else to tag+1.
func (r *RBC) grow(tag int) {
	size := tag + 1
	if len(r.tags) == 0 && r.horizon <= eagerTags {
		size = r.horizon + 1
	}
	r.tags = append(r.tags, make([]rbcTag, size-len(r.tags))...)
	r.done = append(r.done, make([]uint64, size*r.words-len(r.done))...)
}

// finish records that origin's instance of tag finished. It is called
// where an instance's last flag flips, after the instance's last use, so
// each instance is counted once. The finish that leaves no touched
// instance unfinished, with at least n−f touched, releases the slab; a
// tag's touched count only reaches n−f by a touch, which adds an unfinished
// instance, so no release is missed. Emitted values alias the slab's
// vectors, so whatever still holds one keeps that storage, not the
// tallies, alive.
func (r *RBC) finish(t *rbcTag, tag int, origin sim.ProcID) {
	w, bit := r.doneBit(tag, origin)
	*w |= bit
	t.finished++
	if int(t.finished) == r.n {
		r.retired++
	}
	if t.finished == t.touched && int(t.touched) >= r.n-r.f {
		t.insts = nil
	}
}

// RetiredTags counts the retired tags.
func (r *RBC) RetiredTags() int { return r.retired }

// tally returns instance i's tally of value, registering it (with the
// instance's one copy of the vector) on first sight; the first registers
// the instance as touched. The pointer is valid until the next tally call
// on the instance.
func (t *rbcTag) tally(i *rbcInst, value geometry.Vector) *rbcVal {
	for idx := range i.vals {
		if i.vals[idx].value.Equal(value) {
			return &i.vals[idx]
		}
	}
	own := i.slot
	if len(i.vals) == 0 {
		own = append(own, value...) // the slab slot: no allocation
		t.touched++
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
	// loopback, so it cannot have finished unless this is a second
	// Broadcast.
	t, inst := r.inst(r.self, tag)
	if inst == nil {
		return RBCMsg{}, fmt.Errorf("broadcast: tag %d: own broadcast already finished", tag)
	}
	v := t.tally(inst, value)
	return RBCMsg{Phase: RBCInit, Origin: r.self, Tag: tag, Value: v.value}, nil
}

// Handle processes one message from the network. It returns protocol
// messages to broadcast to all processes and any deliveries triggered; both
// slices are valid until the next Handle call. Malformed, out-of-horizon or
// equivocating messages, and messages for a finished instance, are dropped
// or ignored per protocol.
func (r *RBC) Handle(from sim.ProcID, msg RBCMsg) ([]RBCMsg, []RBCDelivery) {
	if int(msg.Origin) < 0 || int(msg.Origin) >= r.n || int(from) < 0 || int(from) >= r.n {
		return nil, nil
	}
	if !r.valid(msg.Tag, msg.Value) || msg.Phase < RBCInit || msg.Phase > RBCReady {
		return nil, nil
	}
	// Only the origin itself may INIT its instance. Checked before the
	// lookup, so every message that reaches an instance touches it.
	if msg.Phase == RBCInit && from != msg.Origin {
		return nil, nil
	}
	t, inst := r.inst(msg.Origin, msg.Tag)
	if inst == nil {
		return nil, nil
	}
	var ready, deliver *rbcVal

	switch msg.Phase {
	case RBCInit:
		if inst.echoed {
			return nil, nil // first INIT wins
		}
		inst.echoed = true
		r.out[0] = RBCMsg{Phase: RBCEcho, Origin: msg.Origin, Tag: msg.Tag, Value: t.tally(inst, msg.Value).value}
		if inst.readied && inst.delivered {
			r.finish(t, msg.Tag, msg.Origin)
		}
		return r.out[:], nil

	case RBCEcho:
		if inst.from[from] {
			return nil, nil
		}
		inst.from[from] = true
		c := t.tally(inst, msg.Value)
		c.echoes++
		if c.echoes >= r.echoQuorum() && !inst.readied {
			ready = c
		}

	case RBCReady:
		if inst.from[r.n+int(from)] {
			return nil, nil
		}
		inst.from[r.n+int(from)] = true
		c := t.tally(inst, msg.Value)
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
	}
	if deliver != nil {
		inst.delivered = true
		r.del[0] = RBCDelivery{Origin: msg.Origin, Tag: msg.Tag, Value: deliver.value}
		deliveries = r.del[:]
	}
	if (ready != nil || deliver != nil) && inst.echoed && inst.readied && inst.delivered {
		r.finish(t, msg.Tag, msg.Origin)
	}
	return out, deliveries
}
