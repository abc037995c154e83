// Package verify is the generative adversarial testing subsystem: a
// stateful model-based property harness with shrinking, deterministic
// decoders that turn fuzz bytes into adversarially degenerate linear
// programs, the schedule-searching adversary (Search, Evaluate and
// Minimize, in search_test.go), and replay of the regression corpora it
// found. Every file is a _test.go file: the package is evidence about the
// algorithms, and no binary links it.
//
// The harness is gopter-style but hand-rolled on the standard library: a
// System under test executes self-contained Commands and checks its
// invariants after every step; Run drives a seeded random sequence against
// it and, on the first violation, shrinks the concrete command slice to a
// locally minimal failing sequence (greedy delta-debugging plus
// per-command simplification) and reports it in replayable form. Because
// shrinking replays concrete commands — not the generator — Commands must
// carry all their data, and System.Apply must treat commands made
// structurally inapplicable by earlier removals (an index past the current
// size, a delta that would leave the state out of bounds) as no-ops.
//
// See docs/TESTING.md for the full verification ladder and the replay
// recipes for each rung.
package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Command is one self-contained step of a stateful sequence. String must
// render the command with enough precision to reconstruct it exactly
// (print float64 payloads with %v or hexfloat, not a rounded form).
type Command interface {
	String() string
}

// Simplifier is optionally implemented by Commands that can propose
// strictly simpler variants of themselves (smaller payload, lower index).
// Shrink tries the variants in order after sequence-level minimization.
type Simplifier interface {
	Simplify() []Command
}

// System is a model/SUT pair under test. Reset must return the system to a
// state fully determined by seed; Apply executes one command against both
// the system under test and the reference model and checks every invariant
// the pair shares. A non-nil error is a property violation — structurally
// inapplicable commands must be skipped silently instead (see the package
// note on shrinking).
type System interface {
	Reset(seed int64)
	Apply(cmd Command) error
}

// Generator produces the step-th command of a fresh sequence. It must draw
// all randomness from rng so a (seed, steps) pair fully determines the
// sequence.
type Generator func(rng *rand.Rand, step int) Command

// Failure is a shrunk property violation: the seed that produced it, the
// minimal command sequence that still reproduces it, and the violation
// itself.
type Failure struct {
	Seed int64
	Cmds []Command
	Err  error
}

// Error implements error with the full replayable report.
func (f *Failure) Error() string { return f.Report() }

// Report renders the failure in replayable form: the master seed, the
// minimal command sequence, and the violated invariant. Feeding Cmds back
// through Replay reproduces Err.
func (f *Failure) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stateful property failure (seed=%d, %d commands after shrinking)\n", f.Seed, len(f.Cmds))
	for i, c := range f.Cmds {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, c)
	}
	fmt.Fprintf(&b, "  violation: %v\n", f.Err)
	fmt.Fprintf(&b, "  replay: verify.Replay(sys, %d, cmds) with the commands above", f.Seed)
	return b.String()
}

// Run drives steps generated commands against sys from a seed-determined
// initial state. On the first violation the failing prefix is shrunk and
// returned; a nil return means the whole sequence passed.
func Run(sys System, gen Generator, seed int64, steps int) *Failure {
	rng := rand.New(rand.NewSource(seed))
	sys.Reset(seed)
	cmds := make([]Command, 0, steps)
	for i := 0; i < steps; i++ {
		cmd := gen(rng, i)
		if cmd == nil {
			continue
		}
		cmds = append(cmds, cmd)
		if err := sys.Apply(cmd); err != nil {
			return Shrink(sys, seed, cmds, err)
		}
	}
	return nil
}

// Replay resets sys to seed and applies cmds in order, returning the first
// violation (nil if the sequence passes). It is both the shrinking oracle
// and the way to re-run a reported Failure standalone.
func Replay(sys System, seed int64, cmds []Command) error {
	sys.Reset(seed)
	for _, cmd := range cmds {
		if err := sys.Apply(cmd); err != nil {
			return err
		}
	}
	return nil
}

// Shrink minimizes a failing command sequence: first greedy removal (drop
// one command at a time, keeping the drop whenever the remainder still
// fails, until a full pass removes nothing), then per-command
// simplification for commands implementing Simplifier. The result is
// locally minimal — removing any single remaining command makes the
// sequence pass.
func Shrink(sys System, seed int64, cmds []Command, firstErr error) *Failure {
	cur := append([]Command(nil), cmds...)
	err := firstErr

	// Greedy removal until a fixpoint. Scanning from the back first tends
	// to drop the trailing no-op tail cheaply before the O(k²) front scan.
	for removed := true; removed; {
		removed = false
		for i := len(cur) - 1; i >= 0; i-- {
			trial := make([]Command, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			if terr := Replay(sys, seed, trial); terr != nil {
				cur, err = trial, terr
				removed = true
			}
		}
	}

	// Per-command simplification to a fixpoint.
	for simplified := true; simplified; {
		simplified = false
		for i, c := range cur {
			s, ok := c.(Simplifier)
			if !ok {
				continue
			}
			for _, alt := range s.Simplify() {
				trial := append([]Command(nil), cur...)
				trial[i] = alt
				if terr := Replay(sys, seed, trial); terr != nil {
					cur, err = trial, terr
					simplified = true
					break
				}
			}
		}
	}
	return &Failure{Seed: seed, Cmds: cur, Err: err}
}

// toySystem is a counter with a planted bug: the invariant breaks once the
// counter has absorbed three or more increments of size ≥ 4, regardless of
// interleaved no-ops. The minimal failing sequence is exactly three
// BigIncr commands, which pins down both removal and simplification.
type toySystem struct {
	big int
}

type toyIncr struct{ N int }

func (c toyIncr) String() string { return fmt.Sprintf("Incr(%d)", c.N) }

// Simplify proposes smaller increments.
func (c toyIncr) Simplify() []Command {
	var out []Command
	for n := 0; n < c.N; n++ {
		out = append(out, toyIncr{N: n})
	}
	return out
}

type toyNoop struct{}

func (toyNoop) String() string { return "Noop()" }

func (s *toySystem) Reset(int64) { s.big = 0 }

func (s *toySystem) Apply(cmd Command) error {
	switch c := cmd.(type) {
	case toyIncr:
		if c.N >= 4 {
			s.big++
		}
		if s.big >= 3 {
			return fmt.Errorf("three big increments")
		}
	case toyNoop:
	}
	return nil
}

func TestHarnessFindsAndShrinks(t *testing.T) {
	sys := &toySystem{}
	gen := func(rng *rand.Rand, _ int) Command {
		if rng.Intn(2) == 0 {
			return toyNoop{}
		}
		return toyIncr{N: rng.Intn(10)}
	}
	fail := Run(sys, gen, 1, 200)
	if fail == nil {
		t.Fatal("planted bug not found in 200 steps")
	}
	if len(fail.Cmds) != 3 {
		t.Fatalf("shrunk to %d commands, want 3:\n%s", len(fail.Cmds), fail.Report())
	}
	for _, c := range fail.Cmds {
		incr, ok := c.(toyIncr)
		if !ok {
			t.Fatalf("non-essential command survived shrinking: %s", c)
		}
		// Simplification should have driven every increment to the
		// smallest value that still counts as big.
		if incr.N != 4 {
			t.Fatalf("command not fully simplified: %s (want Incr(4))", c)
		}
	}
	// The shrunk sequence must replay to the same violation.
	if err := Replay(sys, fail.Seed, fail.Cmds); err == nil {
		t.Fatal("shrunk sequence does not replay to a failure")
	}
	// And be locally minimal: dropping any command makes it pass.
	for i := range fail.Cmds {
		trial := append(append([]Command(nil), fail.Cmds[:i]...), fail.Cmds[i+1:]...)
		if err := Replay(sys, fail.Seed, trial); err != nil {
			t.Fatalf("sequence not minimal: still fails without command %d", i+1)
		}
	}
	for _, want := range []string{"seed=1", "Incr(4)", "replay:", "three big increments"} {
		if !strings.Contains(fail.Report(), want) {
			t.Fatalf("report missing %q:\n%s", want, fail.Report())
		}
	}
}

func TestHarnessPassesCleanSystem(t *testing.T) {
	sys := &toySystem{}
	gen := func(rng *rand.Rand, _ int) Command { return toyIncr{N: rng.Intn(4)} }
	if fail := Run(sys, gen, 2, 500); fail != nil {
		t.Fatalf("clean system reported a failure:\n%s", fail.Report())
	}
}
