// Package broadcast implements the two broadcast substrates the BVC
// algorithms are built on:
//
//   - EIG: synchronous Byzantine broadcast by exponential information
//     gathering (the Lamport–Shostak–Pease oral-messages protocol in its
//     EIG-tree formulation), correct for n ≥ 3f+1 in f+1 rounds. Exact BVC
//     step 1 runs one instance per process to make all correct processes
//     agree on the full input multiset S.
//
//   - RBC: asynchronous reliable broadcast (Bracha's echo/ready protocol),
//     correct for n > 3f. It supplies AAD Properties 2 and 3 — at most one
//     value delivered per (origin, round), and the origin's own value when
//     the origin is correct — on which the witness mechanism (internal/aad)
//     builds Property 1.
package broadcast

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/geometry"
	"repro/internal/sim"
)

// EIGRelay is one (path, value) pair relayed in an EIG round: "the chain of
// processes `Path` claims the instance's sender said `Value`".
type EIGRelay struct {
	Path  []sim.ProcID
	Value geometry.Vector
}

// EIGInstanceRelays groups the relays of one EIG instance (identified by
// its designated sender).
type EIGInstanceRelays struct {
	Sender sim.ProcID
	Relays []EIGRelay
}

// EIGRoundMsg is the single per-recipient message of a (possibly multi-
// instance) EIG round.
type EIGRoundMsg struct {
	Round     int
	Instances []EIGInstanceRelays
}

// EIG is one instance of synchronous Byzantine broadcast with a designated
// sender, run for f+1 lock-step rounds and then resolved. The zero value is
// not usable; construct with NewEIG.
type EIG struct {
	n, f   int
	self   sim.ProcID
	sender sim.ProcID
	def    geometry.Vector
	dim    int
	input  geometry.Vector // set iff self == sender

	// vals[k] stores level-(k+1) tree nodes: pathKey(σ) → node, |σ| = k+1.
	// The node keeps the decoded path so the relay step never re-parses
	// keys, and the stored values are treated as immutable (they are cloned
	// nowhere on the hot path — see Receive).
	vals []map[string]eigNode

	keyBuf []byte // scratch for allocation-free key lookups
}

// eigNode is one EIG tree node: the (already validated) relay path and the
// value the path's last process claimed.
type eigNode struct {
	path  []sim.ProcID
	value geometry.Vector
}

// NewEIG builds an EIG instance. def is the default value used for missing
// or malformed relays (all correct processes must use the same default; the
// BVC algorithms use the all-zero vector of dimension d). input is this
// process's value when self == sender (ignored otherwise).
func NewEIG(n, f int, self, sender sim.ProcID, input, def geometry.Vector) (*EIG, error) {
	if n < 3*f+1 {
		return nil, fmt.Errorf("broadcast: EIG requires n ≥ 3f+1, got n=%d f=%d", n, f)
	}
	if f < 0 {
		return nil, fmt.Errorf("broadcast: negative f=%d", f)
	}
	if int(self) < 0 || int(self) >= n || int(sender) < 0 || int(sender) >= n {
		return nil, fmt.Errorf("broadcast: ids self=%d sender=%d out of range n=%d", self, sender, n)
	}
	if def == nil {
		return nil, errors.New("broadcast: nil default value")
	}
	e := &EIG{
		n: n, f: f,
		self:   self,
		sender: sender,
		def:    def.Clone(),
		dim:    def.Dim(),
		vals:   make([]map[string]eigNode, f+1),
	}
	for i := range e.vals {
		e.vals[i] = make(map[string]eigNode)
	}
	if self == sender {
		if input == nil || input.Dim() != e.dim || !input.IsFinite() {
			return nil, fmt.Errorf("broadcast: sender input invalid (dim %d, want %d)", input.Dim(), e.dim)
		}
		e.input = input.Clone()
	}
	return e, nil
}

// Rounds returns the number of synchronous rounds, f+1.
func (e *EIG) Rounds() int { return e.f + 1 }

// Outgoing returns the relays this (honest) process sends in round r; the
// same relays go to every recipient. Round 1 carries only the sender's
// value; round r > 1 relays level-(r−1) tree values not containing self.
func (e *EIG) Outgoing(r int) []EIGRelay {
	if r < 1 || r > e.f+1 {
		return nil
	}
	if r == 1 {
		if e.self != e.sender {
			return nil
		}
		return []EIGRelay{{Path: nil, Value: e.input.Clone()}}
	}
	level := e.vals[r-2] // paths of length r−1
	out := make([]EIGRelay, 0, len(level))
	for _, node := range level {
		if containsID(node.path, e.self) {
			continue
		}
		// The stored path and value are immutable once ingested, so the
		// relay shares them rather than cloning.
		out = append(out, EIGRelay{Path: node.path, Value: node.value})
	}
	sortRelays(out)
	return out
}

// Receive ingests the relays sent by process `from` in round r. Malformed
// relays (bad path shape, duplicate ids, wrong dimension, non-finite
// values) are discarded — the resolve step substitutes the default, exactly
// as the protocol prescribes for missing messages. Ingested paths and values
// are retained without cloning: callers must not mutate them afterwards
// (protocol messages are immutable once sent).
func (e *EIG) Receive(r int, from sim.ProcID, relays []EIGRelay) {
	if r < 1 || r > e.f+1 {
		return
	}
	for _, relay := range relays {
		if len(relay.Path) != r-1 {
			continue
		}
		if r == 1 {
			if from != e.sender {
				continue
			}
		} else {
			if relay.Path[0] != e.sender || !validPath(relay.Path, e.n) || containsID(relay.Path, from) {
				continue
			}
		}
		if relay.Value.Dim() != e.dim || !relay.Value.IsFinite() {
			continue
		}
		buf := e.keyBuf[:0]
		for _, id := range relay.Path {
			buf = appendKeyID(buf, id)
		}
		buf = appendKeyID(buf, from)
		e.keyBuf = buf
		if _, dup := e.vals[r-1][string(buf)]; dup {
			continue // first occurrence wins
		}
		newPath := make([]sim.ProcID, 0, len(relay.Path)+1)
		newPath = append(append(newPath, relay.Path...), from)
		e.vals[r-1][string(buf)] = eigNode{path: newPath, value: relay.Value}
	}
}

// Resolve computes the broadcast decision after the final round by the
// recursive-majority rule on the EIG tree. All correct processes resolve to
// the same value, and to the sender's value when the sender is correct
// (n ≥ 3f+1).
func (e *EIG) Resolve() geometry.Vector {
	// One path buffer serves the whole depth-first recursion: each level
	// writes its own position, so sibling calls may reuse the backing.
	path := make([]sim.ProcID, 1, e.f+2)
	path[0] = e.sender
	// Scratch for one level's children; levels recurse before collecting,
	// so each needs its own window.
	scratch := make([]geometry.Vector, 0, e.n*(e.f+1))
	return e.resolve(path, scratch).Clone()
}

func (e *EIG) resolve(path []sim.ProcID, scratch []geometry.Vector) geometry.Vector {
	level := len(path) - 1
	if len(path) == e.f+1 {
		buf := e.keyBuf[:0]
		for _, id := range path {
			buf = appendKeyID(buf, id)
		}
		e.keyBuf = buf
		if node, ok := e.vals[level][string(buf)]; ok {
			return node.value
		}
		return e.def
	}
	// Strict majority over children W(σ·j), j ∉ σ. The strict-majority
	// value is unique when it exists, so a Boyer-Moore vote (candidate
	// pass + count pass) replaces the per-node hash maps: no allocation,
	// same deterministic result on every correct process.
	children := scratch[len(scratch):len(scratch):cap(scratch)]
	for j := 0; j < e.n; j++ {
		id := sim.ProcID(j)
		if containsID(path, id) {
			continue
		}
		children = append(children, e.resolve(append(path, id), children))
	}
	var candidate geometry.Vector
	lead := 0
	for _, child := range children {
		switch {
		case lead == 0:
			candidate, lead = child, 1
		case candidate.Equal(child):
			lead++
		default:
			lead--
		}
	}
	if candidate != nil {
		count := 0
		for _, child := range children {
			if candidate.Equal(child) {
				count++
			}
		}
		if 2*count > len(children) {
			return candidate
		}
	}
	return e.def
}

// appendKeyID appends one process id to a path key under construction,
// producing the same representation as pathKey without allocating.
func appendKeyID(dst []byte, id sim.ProcID) []byte {
	if len(dst) > 0 {
		dst = append(dst, ',')
	}
	return strconv.AppendInt(dst, int64(id), 10)
}

// pathKey encodes a path deterministically for map storage.
func pathKey(path []sim.ProcID) string {
	var b []byte
	for _, id := range path {
		b = appendKeyID(b, id)
	}
	return string(b)
}

// decodePath is the inverse of pathKey (inputs are internally produced,
// so malformed keys cannot occur).
func decodePath(key string) []sim.ProcID {
	if key == "" {
		return nil
	}
	parts := strings.Split(key, ",")
	out := make([]sim.ProcID, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			panic("broadcast: corrupt internal path key: " + key)
		}
		out[i] = sim.ProcID(v)
	}
	return out
}

// validPath reports whether ids are in range and pairwise distinct (paths
// are short — at most f+1 ids — so the quadratic scan beats a map).
func validPath(path []sim.ProcID, n int) bool {
	for i, id := range path {
		if int(id) < 0 || int(id) >= n {
			return false
		}
		for _, prev := range path[:i] {
			if prev == id {
				return false
			}
		}
	}
	return true
}

func containsID(path []sim.ProcID, id sim.ProcID) bool {
	for _, p := range path {
		if p == id {
			return true
		}
	}
	return false
}

// sortRelays orders relays by path (numeric, position-wise) for
// deterministic message layout.
func sortRelays(relays []EIGRelay) {
	for i := 1; i < len(relays); i++ {
		for j := i; j > 0 && pathLess(relays[j].Path, relays[j-1].Path); j-- {
			relays[j], relays[j-1] = relays[j-1], relays[j]
		}
	}
}

// pathLess compares paths lexicographically by process id.
func pathLess(a, b []sim.ProcID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// MultiEIG runs n concurrent EIG instances, one per designated sender —
// exactly step 1 of the Exact BVC algorithm, where every process broadcasts
// its input vector and all correct processes assemble an identical multiset
// S of n vectors. It implements sim.SyncNode for the lock-step engine.
type MultiEIG struct {
	n, f      int
	self      sim.ProcID
	instances []*EIG
	round     int
	done      bool
	decisions []geometry.Vector
}

var _ sim.SyncNode = (*MultiEIG)(nil)

// NewMultiEIG creates the n-instance broadcast stage for a process with the
// given input vector; def is the shared default value (all-zero vector of
// the input dimension in the BVC algorithms).
func NewMultiEIG(n, f int, self sim.ProcID, input, def geometry.Vector) (*MultiEIG, error) {
	m := &MultiEIG{n: n, f: f, self: self, instances: make([]*EIG, n)}
	for s := 0; s < n; s++ {
		inst, err := NewEIG(n, f, self, sim.ProcID(s), input, def)
		if err != nil {
			return nil, err
		}
		m.instances[s] = inst
	}
	return m, nil
}

// Rounds returns f+1.
func (m *MultiEIG) Rounds() int { return m.f + 1 }

// Outbox implements sim.SyncNode: the honest combined message of round r,
// identical for every recipient.
func (m *MultiEIG) Outbox(r int) map[sim.ProcID]sim.Message {
	if m.done {
		return nil
	}
	msg := EIGRoundMsg{Round: r}
	for s, inst := range m.instances {
		relays := inst.Outgoing(r)
		if len(relays) == 0 {
			continue
		}
		msg.Instances = append(msg.Instances, EIGInstanceRelays{Sender: sim.ProcID(s), Relays: relays})
	}
	out := make(map[sim.ProcID]sim.Message, m.n)
	for to := 0; to < m.n; to++ {
		out[sim.ProcID(to)] = msg
	}
	return out
}

// Deliver implements sim.SyncNode.
func (m *MultiEIG) Deliver(r int, inbox map[sim.ProcID]sim.Message) {
	for from := 0; from < m.n; from++ {
		raw, ok := inbox[sim.ProcID(from)]
		if !ok {
			continue
		}
		msg, ok := raw.(EIGRoundMsg)
		if !ok || msg.Round != r {
			continue
		}
		for _, ir := range msg.Instances {
			if int(ir.Sender) < 0 || int(ir.Sender) >= m.n {
				continue
			}
			m.instances[ir.Sender].Receive(r, sim.ProcID(from), ir.Relays)
		}
	}
	m.round = r
	if m.round >= m.f+1 {
		m.decisions = make([]geometry.Vector, m.n)
		for s, inst := range m.instances {
			m.decisions[s] = inst.Resolve()
		}
		m.done = true
	}
}

// Done implements sim.SyncNode.
func (m *MultiEIG) Done() bool { return m.done }

// Decisions returns, after the final round, the agreed value of every
// instance: Decisions()[s] is what all correct processes agree process s
// broadcast. It returns nil before completion.
func (m *MultiEIG) Decisions() []geometry.Vector {
	if !m.done {
		return nil
	}
	out := make([]geometry.Vector, len(m.decisions))
	for i, v := range m.decisions {
		out[i] = v.Clone()
	}
	return out
}
