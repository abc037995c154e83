package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/safearea"
	"repro/internal/sim"
)

func vec(xs ...float64) geometry.Vector { return geometry.Vector(xs) }

// runExact executes Exact BVC with the given correct inputs and Byzantine
// nodes (nil entries in byz become correct nodes) and returns the decisions
// plus the assembled execution record.
func runExact(t *testing.T, params core.Params, inputs []geometry.Vector, byz map[int]sim.SyncNode) (*core.Execution, []*core.ExactNode) {
	t.Helper()
	nodes := make([]sim.SyncNode, params.N)
	impls := make([]*core.ExactNode, params.N)
	for i := 0; i < params.N; i++ {
		if b, ok := byz[i]; ok {
			nodes[i] = b
			continue
		}
		nd, err := core.NewExactNode(params, sim.ProcID(i), inputs[i])
		if err != nil {
			t.Fatalf("NewExactNode(%d): %v", i, err)
		}
		impls[i] = nd
		nodes[i] = nd
	}
	if _, err := sim.RunSync(nodes, params.F+2); err != nil {
		t.Fatalf("RunSync: %v", err)
	}
	ex := &core.Execution{D: params.D, F: params.F}
	for i := 0; i < params.N; i++ {
		o := core.Outcome{ID: i}
		if impls[i] != nil {
			o.Correct = true
			o.Input = inputs[i]
			dec, err := impls[i].Decision()
			if err != nil {
				t.Fatalf("node %d decision: %v", i, err)
			}
			o.Decision = dec
		}
		ex.Outcomes = append(ex.Outcomes, o)
	}
	return ex, impls
}

func boxInputs(rng *rand.Rand, n, d int, lo, hi float64) []geometry.Vector {
	out := make([]geometry.Vector, n)
	for i := range out {
		v := geometry.NewVector(d)
		for j := range v {
			v[j] = lo + rng.Float64()*(hi-lo)
		}
		out[i] = v
	}
	return out
}

func TestExactAllHonest(t *testing.T) {
	params := core.Params{N: 5, F: 1, D: 2}
	rng := rand.New(rand.NewSource(1))
	inputs := boxInputs(rng, params.N, params.D, 0, 1)
	ex, impls := runExact(t, params, inputs, nil)
	if err := ex.VerifyExact(1e-6); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	// All correct processes assembled the identical multiset S = inputs.
	s0 := impls[0].AgreedMultiset()
	for i := 0; i < params.N; i++ {
		if !impls[i].AgreedMultiset().Equal(s0) {
			t.Errorf("process %d has different S", i)
		}
	}
	for i, x := range inputs {
		if !s0.At(i).Equal(x) {
			t.Errorf("S[%d] = %v, want input %v", i, s0.At(i), x)
		}
	}
}

func TestExactSilentByzantine(t *testing.T) {
	params := core.Params{N: 4, F: 1, D: 2}
	rng := rand.New(rand.NewSource(2))
	inputs := boxInputs(rng, params.N, params.D, -1, 1)
	ex, _ := runExact(t, params, inputs, map[int]sim.SyncNode{2: adversary.SilentSync{}})
	if err := ex.VerifyExact(1e-6); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
}

func TestExactEquivocatingByzantine(t *testing.T) {
	params := core.Params{N: 4, F: 1, D: 2}
	rng := rand.New(rand.NewSource(3))
	inputs := boxInputs(rng, params.N, params.D, 0, 1)
	eq := adversary.NewEIGEquivocator(params.N, params.F+1, 3, func(to sim.ProcID) geometry.Vector {
		return vec(float64(to)*10, -float64(to))
	})
	ex, _ := runExact(t, params, inputs, map[int]sim.SyncNode{3: eq})
	if err := ex.VerifyExact(1e-6); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
}

func TestExactRandomByzantine(t *testing.T) {
	params := core.Params{N: 5, F: 1, D: 3}
	rng := rand.New(rand.NewSource(4))
	inputs := boxInputs(rng, params.N, params.D, 0, 1)
	adv := adversary.NewEIGRandom(params.N, params.D, params.F+1, geometry.UniformBox(params.D, -5, 5), rng)
	ex, _ := runExact(t, params, inputs, map[int]sim.SyncNode{1: adv})
	if err := ex.VerifyExact(1e-6); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
}

func TestExactCrashMidBroadcast(t *testing.T) {
	params := core.Params{N: 4, F: 1, D: 2}
	rng := rand.New(rand.NewSource(5))
	inputs := boxInputs(rng, params.N, params.D, 0, 1)
	// The crashing process behaves correctly in round 1 and sends round 2
	// messages to only one recipient.
	wrapped, err := core.NewExactNode(params, 0, inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	crash := &adversary.CrashSync{Wrapped: wrapped, CrashRound: 2, PartialTo: 1}
	ex, _ := runExact(t, params, inputs, map[int]sim.SyncNode{0: crash})
	if err := ex.VerifyExact(1e-6); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
}

func TestExactF2Grid(t *testing.T) {
	// f = 2 with two colluding adversaries at the tight bound
	// n = max(3f+1, (d+1)f+1).
	for _, d := range []int{1, 2, 3} {
		params := core.Params{N: core.MinProcesses(core.VariantExactSync, d, 2), F: 2, D: d}
		rng := rand.New(rand.NewSource(int64(10 + d)))
		inputs := boxInputs(rng, params.N, params.D, 0, 1)
		eq := adversary.NewEIGEquivocator(params.N, params.F+1, 0, func(to sim.ProcID) geometry.Vector {
			return vec(boxInputs(rng, 1, d, -3, 3)[0]...)
		})
		silent := adversary.SilentSync{}
		ex, _ := runExact(t, params, inputs, map[int]sim.SyncNode{0: eq, 1: silent})
		if err := ex.VerifyExact(1e-6); err != nil {
			t.Fatalf("d=%d: verification failed: %v", d, err)
		}
	}
}

func TestExactDeterministicChoiceMatchesGamma(t *testing.T) {
	// The decision must lie in Γ(S) where S is the agreed multiset.
	params := core.Params{N: 5, F: 1, D: 2}
	rng := rand.New(rand.NewSource(6))
	inputs := boxInputs(rng, params.N, params.D, 0, 1)
	ex, impls := runExact(t, params, inputs, nil)
	if err := ex.VerifyExact(1e-6); err != nil {
		t.Fatal(err)
	}
	dec, err := impls[0].Decision()
	if err != nil {
		t.Fatal(err)
	}
	in, err := safearea.Contains(impls[0].AgreedMultiset(), params.F, dec, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !in {
		t.Errorf("decision %v not in Γ(S)", dec)
	}
}

func TestExactNodeValidation(t *testing.T) {
	if _, err := core.NewExactNode(core.Params{N: 3, F: 1, D: 1}, 0, vec(1)); err == nil {
		t.Error("n < bound: expected error")
	}
	if _, err := core.NewExactNode(core.Params{N: 4, F: 1, D: 1}, 9, vec(1)); err == nil {
		t.Error("self out of range: expected error")
	}
	if _, err := core.NewExactNode(core.Params{N: 4, F: 1, D: 2}, 0, vec(1)); err == nil {
		t.Error("input dim mismatch: expected error")
	}
}

func TestExactDecisionBeforeTermination(t *testing.T) {
	nd, err := core.NewExactNode(core.Params{N: 4, F: 1, D: 1}, 0, vec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Decision(); err == nil {
		t.Error("expected not-terminated error")
	}
}

// TestCoordinateWiseViolatesValidity reproduces the paper's §1
// counterexample: coordinate-wise scalar consensus on probability vectors
// decides [1/6, 1/6, 1/6], which is not in the convex hull of the correct
// inputs; Exact BVC on the identical inputs stays inside (experiment E8).
func TestCoordinateWiseViolatesValidity(t *testing.T) {
	run := func(params core.Params, inputs []geometry.Vector, correct int,
		mkNode func(i int) (sim.SyncNode, func() (geometry.Vector, error))) *core.Execution {
		nodes := make([]sim.SyncNode, params.N)
		decFns := make([]func() (geometry.Vector, error), params.N)
		for i := 0; i < params.N; i++ {
			nd, dec := mkNode(i)
			nodes[i] = nd
			decFns[i] = dec
		}
		if _, err := sim.RunSync(nodes, params.F+2); err != nil {
			t.Fatal(err)
		}
		ex := &core.Execution{D: params.D, F: params.F}
		for i := 0; i < params.N; i++ {
			o := core.Outcome{ID: i, Correct: i < correct, Input: inputs[i]}
			if o.Correct {
				dec, err := decFns[i]()
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				o.Decision = dec
			}
			ex.Outcomes = append(ex.Outcomes, o)
		}
		return ex
	}

	// Baseline: the paper's exact instance — n = 4, d = 3, the three
	// probability-vector inputs, and the Byzantine process announcing the
	// all-zero vector (a legal strategy: it just participates "honestly"
	// with a crafted input).
	cwParams := core.Params{N: 4, F: 1, D: 3}
	cwInputs := []geometry.Vector{
		vec(2.0/3, 1.0/6, 1.0/6),
		vec(1.0/6, 2.0/3, 1.0/6),
		vec(1.0/6, 1.0/6, 2.0/3),
		vec(0, 0, 0),
	}
	exCW := run(cwParams, cwInputs, 3, func(i int) (sim.SyncNode, func() (geometry.Vector, error)) {
		nd, err := core.NewCoordWiseNode(cwParams, sim.ProcID(i), cwInputs[i])
		if err != nil {
			t.Fatal(err)
		}
		return nd, nd.Decision
	})
	if err := exCW.VerifyAgreement(); err != nil {
		t.Fatalf("coordinate-wise should still agree: %v", err)
	}
	err := exCW.VerifyValidity(1e-6)
	if !errors.Is(err, core.ErrValidity) {
		t.Fatalf("coordinate-wise validity error = %v, want ErrValidity", err)
	}
	// The violating decision is exactly the paper's [1/6, 1/6, 1/6].
	want := vec(1.0/6, 1.0/6, 1.0/6)
	if !exCW.Outcomes[0].Decision.ApproxEqual(want, 1e-9) {
		t.Errorf("baseline decided %v, paper predicts %v", exCW.Outcomes[0].Decision, want)
	}

	// Exact BVC needs n ≥ (d+1)f+1 = 5 for d = 3 (the price of real vector
	// validity); with a fourth correct probability vector the decision
	// stays on the simplex.
	bvcParams := core.Params{N: 5, F: 1, D: 3}
	bvcInputs := []geometry.Vector{
		cwInputs[0], cwInputs[1], cwInputs[2],
		vec(1.0/3, 1.0/3, 1.0/3),
		vec(0, 0, 0), // Byzantine announcement
	}
	exBVC := run(bvcParams, bvcInputs, 4, func(i int) (sim.SyncNode, func() (geometry.Vector, error)) {
		nd, err := core.NewExactNode(bvcParams, sim.ProcID(i), bvcInputs[i])
		if err != nil {
			t.Fatal(err)
		}
		return nd, nd.Decision
	})
	if err := exBVC.VerifyExact(1e-6); err != nil {
		t.Fatalf("Exact BVC should be valid: %v", err)
	}
	// The decision is a probability vector.
	dec := exBVC.Outcomes[0].Decision
	var sum float64
	for _, x := range dec {
		sum += x
		if x < -1e-7 {
			t.Errorf("decision coordinate %g < 0", x)
		}
	}
	if diff := sum - 1; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("decision %v sums to %g, want 1", dec, sum)
	}
}

func TestCoordWiseNodeValidation(t *testing.T) {
	if _, err := core.NewCoordWiseNode(core.Params{N: 3, F: 1, D: 1}, 0, vec(1)); err == nil {
		t.Error("n < bound: expected error")
	}
	nd, err := core.NewCoordWiseNode(core.Params{N: 4, F: 1, D: 1}, 0, vec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Decision(); err == nil {
		t.Error("expected not-terminated error")
	}
}
