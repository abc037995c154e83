package broadcast

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/sim"
)

func vec(xs ...float64) geometry.Vector { return geometry.Vector(xs) }

// runEIG drives one EIG instance among n processes by hand. honest maps
// process id → instance (Byzantine processes are absent). byz, when
// non-nil, supplies the relays a Byzantine process sends in round r to a
// specific recipient.
func runEIG(t *testing.T, n, f int, honest map[sim.ProcID]*EIG,
	byz map[sim.ProcID]func(r int, to sim.ProcID) []EIGRelay) {
	t.Helper()
	rounds := f + 1
	for r := 1; r <= rounds; r++ {
		// Honest relays are recipient-independent.
		honestOut := make(map[sim.ProcID][]EIGRelay, len(honest))
		for id, inst := range honest {
			honestOut[id] = inst.Outgoing(r)
		}
		for to, inst := range honest {
			for from := 0; from < n; from++ {
				fromID := sim.ProcID(from)
				if h, ok := honestOut[fromID]; ok {
					inst.Receive(r, fromID, h)
				} else if fn, ok := byz[fromID]; ok && fn != nil {
					inst.Receive(r, fromID, fn(r, to))
				}
			}
		}
	}
}

func newEIGorFatal(t *testing.T, n, f int, self, sender sim.ProcID, input geometry.Vector) *EIG {
	t.Helper()
	def := geometry.NewVector(2)
	e, err := NewEIG(n, f, self, sender, input, def)
	if err != nil {
		t.Fatalf("NewEIG: %v", err)
	}
	return e
}

func TestEIGHonestSender(t *testing.T) {
	const n, f = 4, 1
	value := vec(3, -1)
	honest := make(map[sim.ProcID]*EIG, n)
	for i := 0; i < n; i++ {
		var input geometry.Vector
		if i == 0 {
			input = value
		}
		honest[sim.ProcID(i)] = newEIGorFatal(t, n, f, sim.ProcID(i), 0, input)
	}
	runEIG(t, n, f, honest, nil)
	for id, inst := range honest {
		if got := inst.Resolve(); !got.Equal(value) {
			t.Errorf("process %d resolved %v, want %v", id, got, value)
		}
	}
}

func TestEIGSilentSenderDefaults(t *testing.T) {
	const n, f = 4, 1
	// Sender (id 0) is Byzantine-silent: relays nothing.
	honest := make(map[sim.ProcID]*EIG, n-1)
	for i := 1; i < n; i++ {
		honest[sim.ProcID(i)] = newEIGorFatal(t, n, f, sim.ProcID(i), 0, nil)
	}
	runEIG(t, n, f, honest, nil)
	def := geometry.NewVector(2)
	for id, inst := range honest {
		if got := inst.Resolve(); !got.Equal(def) {
			t.Errorf("process %d resolved %v, want default %v", id, got, def)
		}
	}
}

func TestEIGEquivocatingSenderAgreement(t *testing.T) {
	// Byzantine sender tells each process a different value; with n = 4,
	// f = 1 all correct processes must still agree (on anything).
	const n, f = 4, 1
	honest := make(map[sim.ProcID]*EIG, n-1)
	for i := 1; i < n; i++ {
		honest[sim.ProcID(i)] = newEIGorFatal(t, n, f, sim.ProcID(i), 0, nil)
	}
	byz := map[sim.ProcID]func(r int, to sim.ProcID) []EIGRelay{
		0: func(r int, to sim.ProcID) []EIGRelay {
			if r != 1 {
				return nil
			}
			return []EIGRelay{{Path: nil, Value: vec(float64(to), 0)}}
		},
	}
	runEIG(t, n, f, honest, byz)
	var first geometry.Vector
	for id := 1; id < n; id++ {
		got := honest[sim.ProcID(id)].Resolve()
		if first == nil {
			first = got
			continue
		}
		if !got.Equal(first) {
			t.Errorf("agreement violated: process %d resolved %v, process 1 resolved %v", id, got, first)
		}
	}
}

func TestEIGByzantineRelayCannotBreakValidity(t *testing.T) {
	// Correct sender, one Byzantine relay lying about the sender's value in
	// round 2: majority resolution must restore the sender's value.
	const n, f = 4, 1
	value := vec(7, 7)
	honest := make(map[sim.ProcID]*EIG, n-1)
	honest[0] = newEIGorFatal(t, n, f, 0, 0, value)
	for i := 1; i < 3; i++ {
		honest[sim.ProcID(i)] = newEIGorFatal(t, n, f, sim.ProcID(i), 0, nil)
	}
	byz := map[sim.ProcID]func(r int, to sim.ProcID) []EIGRelay{
		3: func(r int, to sim.ProcID) []EIGRelay {
			if r != 2 {
				return nil
			}
			return []EIGRelay{{Path: []sim.ProcID{0}, Value: vec(-99, -99)}}
		},
	}
	runEIG(t, n, f, honest, byz)
	for id, inst := range honest {
		if got := inst.Resolve(); !got.Equal(value) {
			t.Errorf("validity violated at %d: %v, want %v", id, got, value)
		}
	}
}

func TestEIGTwoFaultsNeedsSevenProcesses(t *testing.T) {
	// f = 2, n = 7: equivocating sender plus a colluding relay; correct
	// processes must agree after 3 rounds.
	const n, f = 7, 2
	honest := make(map[sim.ProcID]*EIG, n-2)
	for i := 2; i < n; i++ {
		honest[sim.ProcID(i)] = newEIGorFatal(t, n, f, sim.ProcID(i), 0, nil)
	}
	byz := map[sim.ProcID]func(r int, to sim.ProcID) []EIGRelay{
		0: func(r int, to sim.ProcID) []EIGRelay { // equivocating sender
			if r != 1 {
				return nil
			}
			return []EIGRelay{{Path: nil, Value: vec(float64(int(to)%2), 1)}}
		},
		1: func(r int, to sim.ProcID) []EIGRelay { // colluder lies in later rounds
			if r == 1 {
				return nil
			}
			return []EIGRelay{{Path: []sim.ProcID{0}, Value: vec(float64(int(to)%3), 2)}}
		},
	}
	runEIG(t, n, f, honest, byz)
	var first geometry.Vector
	for i := 2; i < n; i++ {
		got := honest[sim.ProcID(i)].Resolve()
		if first == nil {
			first = got
			continue
		}
		if !got.Equal(first) {
			t.Fatalf("agreement violated under f=2 attack: %v vs %v", got, first)
		}
	}
}

func TestEIGRejectsMalformedRelays(t *testing.T) {
	const n, f = 4, 1
	inst := newEIGorFatal(t, n, f, 1, 0, nil)
	// All of these must be ignored without panicking.
	inst.Receive(1, 2, []EIGRelay{{Path: nil, Value: vec(1, 1)}})             // round-1 from non-sender
	inst.Receive(2, 2, []EIGRelay{{Path: []sim.ProcID{5}, Value: vec(1, 1)}}) // id out of range
	inst.Receive(2, 2, []EIGRelay{{Path: []sim.ProcID{1}, Value: vec(1, 1)}}) // path not starting at sender
	inst.Receive(2, 2, []EIGRelay{{Path: []sim.ProcID{0, 2}, Value: vec(1)}}) // wrong length
	inst.Receive(2, 2, []EIGRelay{{Path: []sim.ProcID{2}, Value: vec(1, 1)}}) // wrong root
	inst.Receive(2, 2, []EIGRelay{{Path: []sim.ProcID{0}, Value: vec(1)}})    // wrong dimension
	inst.Receive(0, 0, nil)                                                   // out-of-range round
	inst.Receive(9, 0, nil)
	def := geometry.NewVector(2)
	if got := inst.Resolve(); !got.Equal(def) {
		t.Errorf("resolved %v, want default", got)
	}
}

func TestEIGConfigValidation(t *testing.T) {
	def := geometry.NewVector(1)
	if _, err := NewEIG(3, 1, 0, 0, vec(1), def); err == nil {
		t.Error("n < 3f+1: expected error")
	}
	if _, err := NewEIG(4, -1, 0, 0, vec(1), def); err == nil {
		t.Error("negative f: expected error")
	}
	if _, err := NewEIG(4, 1, 9, 0, vec(1), def); err == nil {
		t.Error("self out of range: expected error")
	}
	if _, err := NewEIG(4, 1, 0, 9, vec(1), def); err == nil {
		t.Error("sender out of range: expected error")
	}
	if _, err := NewEIG(4, 1, 0, 0, nil, def); err == nil {
		t.Error("nil sender input: expected error")
	}
	if _, err := NewEIG(4, 1, 0, 0, vec(1, 2), def); err == nil {
		t.Error("input dim mismatch: expected error")
	}
	if _, err := NewEIG(4, 1, 0, 0, vec(1), nil); err == nil {
		t.Error("nil default: expected error")
	}
}

func TestEIGF0SingleRound(t *testing.T) {
	const n, f = 2, 0
	value := vec(5, 5)
	honest := map[sim.ProcID]*EIG{
		0: newEIGorFatal(t, n, f, 0, 0, value),
		1: newEIGorFatal(t, n, f, 1, 0, nil),
	}
	runEIG(t, n, f, honest, nil)
	for id, inst := range honest {
		if got := inst.Resolve(); !got.Equal(value) {
			t.Errorf("process %d resolved %v", id, got)
		}
	}
}

func TestMultiEIGAllHonest(t *testing.T) {
	const n, f = 4, 1
	def := geometry.NewVector(2)
	inputs := []geometry.Vector{vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)}
	nodes := make([]sim.SyncNode, n)
	impls := make([]*MultiEIG, n)
	for i := 0; i < n; i++ {
		m, err := NewMultiEIG(n, f, sim.ProcID(i), inputs[i], def)
		if err != nil {
			t.Fatal(err)
		}
		impls[i] = m
		nodes[i] = m
	}
	stats, err := sim.RunSync(nodes, f+2)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AllDone || stats.Rounds != f+1 {
		t.Errorf("stats = %+v", stats)
	}
	for i, m := range impls {
		ds := m.Decisions()
		if ds == nil {
			t.Fatalf("node %d has no decisions", i)
		}
		for s, got := range ds {
			if !got.Equal(inputs[s]) {
				t.Errorf("node %d instance %d: %v, want %v", i, s, got, inputs[s])
			}
		}
	}
}

// byzMultiEIG equivocates in every instance and round.
type byzMultiEIG struct {
	n     int
	round int
	done  bool
}

func (b *byzMultiEIG) Outbox(r int) map[sim.ProcID]sim.Message {
	out := make(map[sim.ProcID]sim.Message, b.n)
	for to := 0; to < b.n; to++ {
		msg := EIGRoundMsg{Round: r}
		if r == 1 {
			msg.Instances = []EIGInstanceRelays{{
				Sender: 3,
				Relays: []EIGRelay{{Path: nil, Value: vec(float64(to*10), -5)}},
			}}
		} else {
			msg.Instances = []EIGInstanceRelays{{
				Sender: 0,
				Relays: []EIGRelay{{Path: []sim.ProcID{0}, Value: vec(float64(-to), 99)}},
			}}
		}
		out[sim.ProcID(to)] = msg
	}
	return out
}

func (b *byzMultiEIG) Deliver(r int, _ map[sim.ProcID]sim.Message) {
	b.round = r
	if r >= 2 {
		b.done = true
	}
}

func (b *byzMultiEIG) Done() bool { return b.done }

func TestMultiEIGWithByzantine(t *testing.T) {
	const n, f = 4, 1
	def := geometry.NewVector(2)
	inputs := []geometry.Vector{vec(0, 0), vec(1, 0), vec(0, 1)}
	nodes := make([]sim.SyncNode, n)
	impls := make([]*MultiEIG, 3)
	for i := 0; i < 3; i++ {
		m, err := NewMultiEIG(n, f, sim.ProcID(i), inputs[i], def)
		if err != nil {
			t.Fatal(err)
		}
		impls[i] = m
		nodes[i] = m
	}
	nodes[3] = &byzMultiEIG{n: n}
	if _, err := sim.RunSync(nodes, f+2); err != nil {
		t.Fatal(err)
	}
	// Agreement: identical decision multiset across correct processes.
	base := impls[0].Decisions()
	for i := 1; i < 3; i++ {
		ds := impls[i].Decisions()
		for s := range ds {
			if !ds[s].Equal(base[s]) {
				t.Errorf("instance %d: node %d decided %v, node 0 decided %v", s, i, ds[s], base[s])
			}
		}
	}
	// Validity: correct senders' instances carry their true inputs.
	for s := 0; s < 3; s++ {
		if !base[s].Equal(inputs[s]) {
			t.Errorf("instance %d decided %v, want input %v", s, base[s], inputs[s])
		}
	}
}

func TestMultiEIGDecisionsNilBeforeDone(t *testing.T) {
	m, err := NewMultiEIG(4, 1, 0, vec(1, 1), geometry.NewVector(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Decisions() != nil {
		t.Error("Decisions should be nil before completion")
	}
}
