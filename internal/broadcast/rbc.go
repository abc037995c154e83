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
type RBC struct {
	n, f  int
	self  sim.ProcID
	dim   int
	insts map[rbcKey]*rbcInst

	keyBuf []byte // scratch for bit-exact value keys (no per-message alloc)
}

type rbcKey struct {
	origin sim.ProcID
	tag    int
}

type rbcInst struct {
	echoed    bool
	readied   bool
	delivered bool
	// echoFrom / readyFrom mark processes whose echo/ready was already
	// counted: correct processes send at most one of each, and counting a
	// Byzantine process once per phase is strictly harder for the
	// adversary, preserving quorum-intersection safety.
	echoFrom  []bool
	readyFrom []bool
	// vals holds the per-distinct-value tallies. Correct instances carry one
	// value; equivocation adds at most a handful, so a linear scan beats a
	// map (and the bit-exact key is only materialized on first sight).
	vals []rbcVal
}

// rbcVal tallies one distinct broadcast value within an instance, identified
// by its bit-exact geometry key (vote counting must be exact, not
// tolerance-based, or near-identical Byzantine values could split quorums).
type rbcVal struct {
	key     string
	value   geometry.Vector
	echoes  int
	readies int
}

// NewRBC creates an RBC multiplexer for process self among n processes
// carrying dim-dimensional vector values.
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
	return &RBC{n: n, f: f, self: self, dim: dim, insts: make(map[rbcKey]*rbcInst)}, nil
}

// echoQuorum is ⌊(n+f)/2⌋+1: two echo quorums for different values must
// intersect in a correct process, which echoes only once.
func (r *RBC) echoQuorum() int { return (r.n+r.f)/2 + 1 }

// Broadcast starts this process's own instance for the given tag and
// returns the INIT message to send to every process (including self).
func (r *RBC) Broadcast(tag int, value geometry.Vector) (RBCMsg, error) {
	if value.Dim() != r.dim || !value.IsFinite() {
		return RBCMsg{}, fmt.Errorf("broadcast: invalid RBC value (dim %d, want %d)", value.Dim(), r.dim)
	}
	return RBCMsg{Phase: RBCInit, Origin: r.self, Tag: tag, Value: value.Clone()}, nil
}

// Handle processes one message from the network. It returns protocol
// messages to broadcast to all processes and any deliveries triggered.
// Malformed or equivocating messages are dropped or ignored per protocol.
func (r *RBC) Handle(from sim.ProcID, msg RBCMsg) ([]RBCMsg, []RBCDelivery) {
	if int(msg.Origin) < 0 || int(msg.Origin) >= r.n || int(from) < 0 || int(from) >= r.n {
		return nil, nil
	}
	if msg.Value.Dim() != r.dim || !msg.Value.IsFinite() {
		return nil, nil
	}
	key := rbcKey{origin: msg.Origin, tag: msg.Tag}
	inst := r.insts[key]
	if inst == nil {
		from := make([]bool, 2*r.n) // one slab, split per phase
		inst = &rbcInst{echoFrom: from[:r.n], readyFrom: from[r.n:]}
		r.insts[key] = inst
	}

	var out []RBCMsg
	var deliveries []RBCDelivery

	switch msg.Phase {
	case RBCInit:
		// Only the origin itself may INIT its instance; first INIT wins.
		if from != msg.Origin || inst.echoed {
			return nil, nil
		}
		inst.echoed = true
		out = append(out, RBCMsg{Phase: RBCEcho, Origin: msg.Origin, Tag: msg.Tag, Value: msg.Value.Clone()})

	case RBCEcho:
		if inst.echoFrom[from] {
			return nil, nil
		}
		inst.echoFrom[from] = true
		r.keyBuf = geometry.AppendKey(r.keyBuf[:0], msg.Value)
		c := inst.count(r.keyBuf, msg.Value)
		c.echoes++
		if c.echoes >= r.echoQuorum() && !inst.readied {
			inst.readied = true
			out = append(out, RBCMsg{Phase: RBCReady, Origin: msg.Origin, Tag: msg.Tag, Value: msg.Value.Clone()})
		}

	case RBCReady:
		if inst.readyFrom[from] {
			return nil, nil
		}
		inst.readyFrom[from] = true
		r.keyBuf = geometry.AppendKey(r.keyBuf[:0], msg.Value)
		c := inst.count(r.keyBuf, msg.Value)
		c.readies++
		if c.readies >= r.f+1 && !inst.readied {
			inst.readied = true
			out = append(out, RBCMsg{Phase: RBCReady, Origin: msg.Origin, Tag: msg.Tag, Value: msg.Value.Clone()})
		}
		if c.readies >= 2*r.f+1 && !inst.delivered {
			inst.delivered = true
			deliveries = append(deliveries, RBCDelivery{Origin: msg.Origin, Tag: msg.Tag, Value: c.value.Clone()})
		}

	default:
		return nil, nil
	}
	return out, deliveries
}

// count returns the tally of the value identified by vkey, creating it (with
// an owned copy of the key and value) on first sight. The returned pointer
// is only valid until the next count call on this instance.
func (i *rbcInst) count(vkey []byte, value geometry.Vector) *rbcVal {
	for idx := range i.vals {
		if i.vals[idx].key == string(vkey) {
			return &i.vals[idx]
		}
	}
	i.vals = append(i.vals, rbcVal{key: string(vkey), value: value.Clone()})
	return &i.vals[len(i.vals)-1]
}
