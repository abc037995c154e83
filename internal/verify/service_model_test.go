package verify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/service"
)

// This file lifts the live consensus service (internal/service) into the
// stateful property harness: the SUT is a real loopback mesh of n service
// processes with a chaos.Injector wired into each transport, and the
// commands are the operator surface plus fault actions — Propose,
// KillConn, Partition, Heal, Reconfigure, Drain, Close. The reference
// model is the sequential lifecycle specification: a healthy (or
// ≤f-degraded) mesh decides every proposed instance inside the hull of
// the proposed inputs, a draining mesh refuses with ErrDraining, a closed
// mesh refuses with ErrServiceClosed, and no command may ever surface a
// structural background error. The model is epoch-aware: it keeps its own
// membership clock, a Reconfigure retires one process and admits a
// replacement under the next epoch, and after the change every process of
// the mesh must report exactly the model's epoch — with proposals
// deciding across the flip as if nothing happened. Faults the service is
// specified to absorb (killed conns, a single partitioned process, a
// replaced member) must be invisible in those outcomes.

// ServiceSystem is the live-service System. The zero value is not usable;
// construct with NewServiceSystem and Close it when done.
type ServiceSystem struct {
	n, f, d int

	// faultAfter, when positive, arms the mutation check: the
	// faultAfter-th KillConn secretly closes the whole target process
	// instead of one connection, while the model keeps believing the mesh
	// is up — a seeded SUT/model divergence the harness must find and
	// shrink to its minimal witness (one kill, one propose).
	faultAfter int
	kills      int

	// epochFaultAfter arms the epoch mutation check: the
	// epochFaultAfter-th Reconfigure retires the old process and moves
	// the survivors to the next epoch but silently never starts the
	// replacement, while the model believes the mesh is whole at the new
	// epoch — the divergence the epoch-aware checks must catch and
	// shrink to a witness containing the Reconfigure.
	epochFaultAfter int
	reconfigures    int

	svcs []*service.Service
	injs []*chaos.Injector

	seed  int64
	node  core.AsyncConfig
	addrs []string

	closed  bool
	drained bool
	part    int    // partitioned process id, -1 when whole
	epoch   uint64 // the model's membership clock
	next    uint64
}

// NewServiceSystem builds the system: an n-process mesh in dimension d
// with f=1. n must satisfy the §3.2 bound n ≥ (d+2)f+1.
func NewServiceSystem(n, d int) *ServiceSystem {
	return &ServiceSystem{n: n, f: 1, d: d, part: -1}
}

// ArmFault makes the k-th KillConn diverge (mutation check); k ≤ 0
// disarms.
func (s *ServiceSystem) ArmFault(k int) { s.faultAfter = k }

// ArmEpochFault makes the k-th Reconfigure diverge: the old process is
// retired and the survivors move to the next epoch, but the replacement
// is silently never started while the model believes the mesh is whole.
// k ≤ 0 disarms.
func (s *ServiceSystem) ArmEpochFault(k int) { s.epochFaultAfter = k }

// Close tears down the current mesh; the system is unusable afterwards
// except through Reset.
func (s *ServiceSystem) Close() {
	for _, svc := range s.svcs {
		if svc != nil {
			_ = svc.Close()
		}
	}
	for _, inj := range s.injs {
		if inj != nil {
			inj.Stop()
		}
	}
	s.svcs, s.injs = nil, nil
}

// SvcPropose opens one instance on every non-partitioned process with the
// carried per-process inputs and waits for the expected outcome.
type SvcPropose struct{ Inputs [][]float64 }

func (c SvcPropose) String() string { return fmt.Sprintf("Propose(%v)", c.Inputs) }

// SvcKillConn severs process I's connections to peer J through I's
// injector.
type SvcKillConn struct{ I, J int }

func (c SvcKillConn) String() string { return fmt.Sprintf("KillConn(%d, %d)", c.I, c.J) }

// Simplify proposes lower process and peer indices.
func (c SvcKillConn) Simplify() []Command {
	var out []Command
	for i := 0; i <= c.I; i++ {
		for j := 0; j <= c.J; j++ {
			if (i != c.I || j != c.J) && i != j {
				out = append(out, SvcKillConn{I: i, J: j})
			}
		}
	}
	return out
}

// SvcPartition isolates process P from the rest of the mesh (conns
// severed, dials refused) until the next SvcHeal.
type SvcPartition struct{ P int }

func (c SvcPartition) String() string { return fmt.Sprintf("Partition(%d)", c.P) }

// SvcHeal lifts the active partition.
type SvcHeal struct{}

func (SvcHeal) String() string { return "Heal()" }

// SvcReconfigure retires process P and admits a replacement under the
// next membership epoch: the survivors are Reconfigured, the successor
// dials in at a fresh address, and the whole mesh must settle on exactly
// the model's epoch.
type SvcReconfigure struct{ P int }

func (c SvcReconfigure) String() string { return fmt.Sprintf("Reconfigure(%d)", c.P) }

// Simplify proposes lower process indices.
func (c SvcReconfigure) Simplify() []Command {
	var out []Command
	for p := 0; p < c.P; p++ {
		out = append(out, SvcReconfigure{P: p})
	}
	return out
}

// SvcDrain winds the whole mesh down gracefully.
type SvcDrain struct{}

func (SvcDrain) String() string { return "Drain()" }

// SvcClose closes every process.
type SvcClose struct{}

func (SvcClose) String() string { return "Close()" }

// Reset implements System: tear down any previous mesh and establish a
// fresh one. The consensus configuration is fixed; seed feeds the
// services' internal PRNG streams.
func (s *ServiceSystem) Reset(seed int64) {
	s.Close()
	s.closed, s.drained, s.part, s.next, s.kills = false, false, -1, 1, 0
	s.epoch, s.reconfigures = 0, 0
	s.seed = seed

	s.injs = make([]*chaos.Injector, s.n)
	s.svcs = make([]*service.Service, s.n)
	addrs := make([]string, s.n)
	for i := 0; i < s.n; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	s.node = core.AsyncConfig{
		Params: core.Params{
			N: s.n, F: s.f, D: s.d,
			Epsilon: 0.05,
			Bounds:  geometry.UniformBox(s.d, 0, 1),
		},
		MaxRounds: 2,
	}
	for i := 0; i < s.n; i++ {
		inj, err := chaos.NewInjector(nil, s.n, i)
		if err != nil {
			panic(err) // manual injectors cannot fail construction
		}
		s.injs[i] = inj
		svc, err := service.New(service.Config{
			Node:           s.node,
			ID:             i,
			Addrs:          addrs,
			Seed:           seed + int64(i),
			Transport:      inj,
			MaxDialBackoff: 100 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("verify: service %d: %v", i, err))
		}
		s.svcs[i] = svc
	}
	s.addrs = make([]string, s.n)
	for i, svc := range s.svcs {
		s.addrs[i] = svc.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, s.n)
	for i, svc := range s.svcs {
		i, svc := i, svc
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = establish(svc, s.addrs)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("verify: establish %d: %v", i, err))
		}
	}
}

// Apply implements System. Structurally inapplicable commands (indices
// out of range, a second partition, fault actions on a wound-down mesh)
// are skipped so shrinking stays sound.
func (s *ServiceSystem) Apply(cmd Command) error {
	switch c := cmd.(type) {
	case SvcPropose:
		if len(c.Inputs) != s.n {
			return nil
		}
		if err := s.propose(c); err != nil {
			return err
		}
	case SvcKillConn:
		if c.I < 0 || c.I >= s.n || c.J < 0 || c.J >= s.n || c.I == c.J || s.closed {
			return nil
		}
		s.kills++
		if s.faultAfter > 0 && s.kills == s.faultAfter {
			_ = s.svcs[c.I].Close() // seeded divergence (mutation check)
		} else {
			s.injs[c.I].Sever(c.J)
		}
		// Frames in flight on the killed conn are write-dropped — the
		// documented crash-budget semantics. A proposal in that window
		// would spend fault budget the model doesn't track, so let the
		// link notice the kill and redial before the next command.
		time.Sleep(200 * time.Millisecond)
	case SvcPartition:
		if c.P < 0 || c.P >= s.n || s.part >= 0 || s.closed || s.drained {
			return nil
		}
		rest := make([]int, 0, s.n-1)
		for i := 0; i < s.n; i++ {
			if i != c.P {
				rest = append(rest, i)
			}
		}
		for _, inj := range s.injs {
			inj.Partition([][]int{{c.P}, rest})
		}
		s.part = c.P
	case SvcHeal:
		if s.part < 0 {
			return nil
		}
		for _, inj := range s.injs {
			inj.HealAll()
		}
		s.part = -1
	case SvcReconfigure:
		if c.P < 0 || c.P >= s.n || s.closed || s.drained || s.part >= 0 {
			return nil
		}
		if err := s.reconfigure(c); err != nil {
			return err
		}
	case SvcDrain:
		if s.closed || s.drained {
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		for i, svc := range s.svcs {
			if err := svc.Drain(ctx); err != nil {
				return fmt.Errorf("%s: drain of process %d: %w", c, i, err)
			}
		}
		s.drained = true
	case SvcClose:
		if s.closed {
			return nil
		}
		for _, svc := range s.svcs {
			_ = svc.Close()
		}
		s.closed = true
	default:
		return fmt.Errorf("verify: unknown command %T", cmd)
	}
	return s.checkStructural(cmd)
}

// propose runs one SvcPropose against the lifecycle model.
func (s *ServiceSystem) propose(c SvcPropose) error {
	id := s.next
	s.next++

	inputs := make([]geometry.Vector, s.n)
	for i, v := range c.Inputs {
		if len(v) != s.d {
			return nil // structurally inapplicable payload
		}
		inputs[i] = geometry.Vector(v).Clone()
	}

	// Wound-down meshes must refuse with the exact sentinel.
	if s.closed || s.drained {
		want, name := service.ErrServiceClosed, "ErrServiceClosed"
		if !s.closed {
			want, name = service.ErrDraining, "ErrDraining"
		}
		for i, svc := range s.svcs {
			ch, err := svc.Propose(id, inputs[i])
			if err == nil {
				go func() { <-ch }() // drain the stray instance
				return fmt.Errorf("%s: process %d accepted a proposal on a wound-down mesh", c, i)
			}
			if err != want {
				return fmt.Errorf("%s: process %d refused with %v, want %s", c, i, err, name)
			}
		}
		return nil
	}

	// A single partitioned process sits the instance out; the remaining
	// n−f must decide. More partitioned processes than f would void the
	// guarantee, so such commands are structurally inapplicable (the
	// model only ever partitions one).
	proposers := make([]int, 0, s.n)
	proposed := make([]geometry.Vector, 0, s.n)
	for i := 0; i < s.n; i++ {
		if i != s.part {
			proposers = append(proposers, i)
			proposed = append(proposed, inputs[i])
		}
	}
	chans := make(map[int]<-chan service.Result, len(proposers))
	for _, i := range proposers {
		ch, err := s.svcs[i].Propose(id, inputs[i])
		if err != nil {
			return fmt.Errorf("%s: process %d refused a proposal on a live mesh: %w", c, i, err)
		}
		chans[i] = ch
	}
	deadline := time.After(25 * time.Second)
	for _, i := range proposers {
		select {
		case res := <-chans[i]:
			if res.Err != nil {
				return fmt.Errorf("%s: process %d failed instance %d: %w", c, i, id, res.Err)
			}
			in, err := hull.Contains(proposed, res.Decision, 1e-9)
			if err != nil {
				return fmt.Errorf("%s: process %d: containment: %w", c, i, err)
			}
			if !in {
				return fmt.Errorf("%s: process %d decided %v outside the proposed hull", c, i, res.Decision)
			}
		case <-deadline:
			return fmt.Errorf("%s: process %d did not finish instance %d", c, i, id)
		}
	}
	return nil
}

// reconfigure runs one SvcReconfigure against the epoch-aware model:
// retire process P, advance the membership clock, Reconfigure every
// survivor, admit the replacement at a fresh address, and require the
// whole mesh to report exactly the model's epoch. Under an armed epoch
// fault the replacement is silently never started — the model keeps
// believing the mesh is whole, and the harness must catch the
// divergence (at the epoch check, or at the next proposal).
func (s *ServiceSystem) reconfigure(c SvcReconfigure) error {
	s.reconfigures++
	faulty := s.epochFaultAfter > 0 && s.reconfigures == s.epochFaultAfter

	_ = s.svcs[c.P].Close()
	s.epoch++

	if !faulty {
		tmpl := append([]string(nil), s.addrs...)
		tmpl[c.P] = "127.0.0.1:0"
		repl, err := service.New(service.Config{
			Node:           s.node,
			ID:             c.P,
			Epoch:          s.epoch,
			Addrs:          tmpl,
			Seed:           s.seed + int64(s.n)*int64(s.epoch) + int64(c.P),
			Transport:      s.injs[c.P],
			MaxDialBackoff: 100 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("%s: replacement for process %d: %w", c, c.P, err)
		}
		s.addrs[c.P] = repl.Addr()
		next := service.Membership{Epoch: s.epoch, Addrs: append([]string(nil), s.addrs...)}
		for i, svc := range s.svcs {
			if i == c.P {
				continue
			}
			if err := svc.Reconfigure(next); err != nil && !errors.Is(err, service.ErrStaleEpoch) {
				_ = repl.Close()
				return fmt.Errorf("%s: survivor %d refused epoch %d: %w", c, i, s.epoch, err)
			}
		}
		s.svcs[c.P] = repl
		if err := establish(repl, next.Addrs); err != nil {
			return fmt.Errorf("%s: replacement %d did not establish at epoch %d: %w", c, c.P, s.epoch, err)
		}
	} else {
		// Seeded divergence: survivors move on, the successor never comes.
		next := service.Membership{Epoch: s.epoch, Addrs: append([]string(nil), s.addrs...)}
		for i, svc := range s.svcs {
			if i != c.P {
				_ = svc.Reconfigure(next)
			}
		}
	}

	// Epoch-aware lifecycle check: the mesh must settle on the model's
	// clock — every process, including the replacement, at exactly epoch.
	for i, svc := range s.svcs {
		if got := svc.Epoch(); got != s.epoch {
			return fmt.Errorf("%s: process %d reports epoch %d, model at %d", c, i, got, s.epoch)
		}
	}
	return nil
}

// checkStructural enforces the standing invariant: no command may surface
// a structural background error on any process.
func (s *ServiceSystem) checkStructural(cmd Command) error {
	if s.closed {
		return nil
	}
	for i, svc := range s.svcs {
		if err := svc.Err(); err != nil {
			return fmt.Errorf("%s: process %d structural error: %w", cmd, i, err)
		}
	}
	return nil
}

// ServiceGenerator is the default command mix: proposal-heavy with
// interspersed conn kills, an occasional partition/heal pair, and a rare
// membership replacement; drain and close appear rarely so most
// sequences exercise a live mesh.
func (s *ServiceSystem) ServiceGenerator() Generator {
	return func(rng *rand.Rand, _ int) Command {
		k := rng.Intn(24)
		switch {
		case k == 23:
			return SvcClose{}
		case k == 22:
			return SvcDrain{}
		case k == 21:
			return SvcReconfigure{P: rng.Intn(s.n)}
		case k < 10:
			inputs := make([][]float64, s.n)
			for i := range inputs {
				inputs[i] = randVec(rng, s.d)
			}
			return SvcPropose{Inputs: inputs}
		case k < 15:
			return SvcKillConn{I: rng.Intn(s.n), J: rng.Intn(s.n)}
		case k < 18:
			return SvcPartition{P: rng.Intn(s.n)}
		default:
			return SvcHeal{}
		}
	}
}

// establishTimeout bounds each process's wait for its mesh: Establish
// waits as long as its ctx allows, and a link the model left dark must
// surface as an error rather than hang the check.
const establishTimeout = 10 * time.Second

// establish connects svc to the mesh at addrs within establishTimeout.
func establish(svc *service.Service, addrs []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), establishTimeout)
	defer cancel()
	return svc.Establish(ctx, addrs)
}

// TestServiceSystemRun drives the live-service model through a seeded
// command mix — proposals interleaved with conn kills, a partition/heal
// pair, membership replacements, and lifecycle transitions — and expects
// no property violation.
func TestServiceSystemRun(t *testing.T) {
	if testing.Short() {
		t.Skip("live mesh per Reset; skipped in -short")
	}
	sys := NewServiceSystem(5, 2)
	t.Cleanup(sys.Close)
	if fail := Run(sys, sys.ServiceGenerator(), 3, 14); fail != nil {
		t.Fatalf("live service violated the lifecycle model:\n%s", fail.Report())
	}
}

// TestServiceSystemReconfigureDecidesAcrossEpochs pins the epoch-aware
// happy path deterministically: propose, replace a member, propose again
// — decisions on both sides of the flip, the whole mesh settling on the
// model's epoch each time.
func TestServiceSystemReconfigureDecidesAcrossEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("live mesh per Reset; skipped in -short")
	}
	sys := NewServiceSystem(5, 2)
	t.Cleanup(sys.Close)
	rng := rand.New(rand.NewSource(17))
	mkInputs := func() [][]float64 {
		inputs := make([][]float64, 5)
		for i := range inputs {
			inputs[i] = randVec(rng, 2)
		}
		return inputs
	}
	cmds := []Command{
		SvcPropose{Inputs: mkInputs()},
		SvcReconfigure{P: 2},
		SvcPropose{Inputs: mkInputs()},
		SvcReconfigure{P: 4},
		SvcPropose{Inputs: mkInputs()},
	}
	if err := Replay(sys, 11, cmds); err != nil {
		t.Fatalf("reconfigure lifecycle violated the model: %v", err)
	}
}

// TestServiceSystemShrinksEpochFault is the epoch mutation check: arm
// the seeded epoch fault (the first Reconfigure silently never starts
// the replacement), confirm the epoch-aware checks catch the divergence,
// and confirm shrinking reduces the witness to essentially the
// Reconfigure itself.
func TestServiceSystemShrinksEpochFault(t *testing.T) {
	if testing.Short() {
		t.Skip("live mesh per Reset; skipped in -short")
	}
	sys := NewServiceSystem(5, 2)
	t.Cleanup(sys.Close)
	sys.ArmEpochFault(1)

	gen := func(rng *rand.Rand, step int) Command {
		if step%2 == 1 {
			return SvcReconfigure{P: rng.Intn(5)}
		}
		inputs := make([][]float64, 5)
		for i := range inputs {
			inputs[i] = randVec(rng, 2)
		}
		return SvcPropose{Inputs: inputs}
	}
	fail := Run(sys, gen, 5, 6)
	if fail == nil {
		t.Fatal("armed epoch fault not detected in 6 steps")
	}
	if len(fail.Cmds) > 2 {
		t.Fatalf("shrunk to %d commands, want ≤ 2:\n%s", len(fail.Cmds), fail.Report())
	}
	var reconfigures int
	for _, c := range fail.Cmds {
		if _, ok := c.(SvcReconfigure); ok {
			reconfigures++
		}
	}
	if reconfigures == 0 {
		t.Fatalf("shrunk witness lost the Reconfigure:\n%s", fail.Report())
	}
	if err := Replay(sys, fail.Seed, fail.Cmds); err == nil {
		t.Fatal("shrunk sequence does not replay to a failure")
	}
}

// TestServiceSystemShrinksInjectedDivergence is the mutation check: arm
// the seeded fault (the first KillConn secretly closes the whole target
// process), confirm the harness catches the resulting SUT/model
// divergence, and confirm shrinking reduces the witness to essentially
// kill-then-propose.
func TestServiceSystemShrinksInjectedDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("live mesh per Reset; skipped in -short")
	}
	sys := NewServiceSystem(5, 2)
	t.Cleanup(sys.Close)
	sys.ArmFault(1)

	// Kill-and-propose-heavy mix so the divergence surfaces quickly.
	gen := func(rng *rand.Rand, step int) Command {
		if step%2 == 0 {
			return SvcKillConn{I: rng.Intn(5), J: rng.Intn(5)}
		}
		inputs := make([][]float64, 5)
		for i := range inputs {
			inputs[i] = randVec(rng, 2)
		}
		return SvcPropose{Inputs: inputs}
	}
	fail := Run(sys, gen, 7, 8)
	if fail == nil {
		t.Fatal("armed fault not detected in 8 steps")
	}
	if len(fail.Cmds) > 4 {
		t.Fatalf("shrunk to %d commands, want ≤ 4 (kill + propose):\n%s", len(fail.Cmds), fail.Report())
	}
	var kills, proposes int
	for _, c := range fail.Cmds {
		switch c.(type) {
		case SvcKillConn:
			kills++
		case SvcPropose:
			proposes++
		default:
			t.Fatalf("non-essential command survived shrinking: %s", c)
		}
	}
	if kills == 0 || proposes == 0 {
		t.Fatalf("shrunk witness lost the kill or the probe:\n%s", fail.Report())
	}
	// The shrunk sequence must replay to the same class of violation.
	if err := Replay(sys, fail.Seed, fail.Cmds); err == nil {
		t.Fatal("shrunk sequence does not replay to a failure")
	}
	if !strings.Contains(fail.Report(), "replay:") {
		t.Fatalf("report not replayable:\n%s", fail.Report())
	}
}
