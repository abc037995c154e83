package bvc_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro"
)

func randInputs(rng *rand.Rand, n, d int, lo, hi float64) []bvc.Vector {
	out := make([]bvc.Vector, n)
	for i := range out {
		v := make(bvc.Vector, d)
		for j := range v {
			v[j] = lo + rng.Float64()*(hi-lo)
		}
		out[i] = v
	}
	return out
}

func TestSimulateExactHonest(t *testing.T) {
	cfg := bvc.Config{N: 5, F: 1, D: 2}
	rng := rand.New(rand.NewSource(1))
	inputs := randInputs(rng, cfg.N, cfg.D, 0, 1)
	res, err := bvc.SimulateExact(cfg, inputs, nil, bvc.SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyExact(); err != nil {
		t.Fatalf("verification: %v", err)
	}
	if len(res.Decisions()) != cfg.N {
		t.Errorf("decisions = %d, want %d", len(res.Decisions()), cfg.N)
	}
	if res.Messages == 0 {
		t.Error("no messages recorded")
	}
}

func TestSimulateExactAllStrategies(t *testing.T) {
	cfg := bvc.Config{N: 5, F: 1, D: 2, Lo: []float64{0}, Hi: []float64{1}}
	rng := rand.New(rand.NewSource(2))
	strategies := []bvc.Byzantine{
		{ID: 4, Strategy: bvc.StrategySilent},
		{ID: 4, Strategy: bvc.StrategyCrash, CrashAfter: 1},
		{ID: 4, Strategy: bvc.StrategyEquivocate, Target: bvc.Vector{0, 0}, Target2: bvc.Vector{9, 9}},
		{ID: 4, Strategy: bvc.StrategyRandom},
		{ID: 4, Strategy: bvc.StrategyLure, Target: bvc.Vector{50, 50}},
	}
	for _, b := range strategies {
		inputs := randInputs(rng, cfg.N, cfg.D, 0, 1)
		inputs[4] = nil
		res, err := bvc.SimulateExact(cfg, inputs, []bvc.Byzantine{b}, bvc.SimOptions{Seed: 3})
		if err != nil {
			t.Fatalf("strategy %d: %v", b.Strategy, err)
		}
		if err := res.VerifyExact(); err != nil {
			t.Errorf("strategy %d: verification: %v", b.Strategy, err)
		}
	}
}

func TestSimulateCoordinateWisePaperExample(t *testing.T) {
	cfg := bvc.Config{N: 4, F: 1, D: 3}
	inputs := []bvc.Vector{
		{2.0 / 3, 1.0 / 6, 1.0 / 6},
		{1.0 / 6, 2.0 / 3, 1.0 / 6},
		{1.0 / 6, 1.0 / 6, 2.0 / 3},
		nil,
	}
	byz := []bvc.Byzantine{{ID: 3, Strategy: bvc.StrategyLure, Target: bvc.Vector{0, 0, 0}}}
	res, err := bvc.SimulateCoordinateWise(cfg, inputs, byz, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyValidity(); err == nil {
		t.Fatal("coordinate-wise consensus should violate validity on the paper's example")
	}
}

func TestSimulateApproxAsync(t *testing.T) {
	cfg := bvc.Config{N: 5, F: 1, D: 2, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}}
	rng := rand.New(rand.NewSource(4))
	inputs := randInputs(rng, cfg.N, cfg.D, 0, 1)
	res, err := bvc.SimulateApproxAsync(cfg, inputs, nil, bvc.SimOptions{
		Seed:  5,
		Delay: bvc.DelaySpec{Kind: bvc.DelayUniform, Min: time.Millisecond, Max: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyApprox(); err != nil {
		t.Fatalf("verification: %v", err)
	}
	for _, p := range res.Processes {
		if p.Byzantine {
			continue
		}
		if len(p.History) != p.Rounds+1 {
			t.Errorf("process %d: history %d entries, rounds %d", p.ID, len(p.History), p.Rounds)
		}
	}
}

func TestSimulateApproxAsyncWithByzantineAndStarving(t *testing.T) {
	cfg := bvc.Config{
		N: 5, F: 1, D: 2, Epsilon: 0.25,
		Lo: []float64{0}, Hi: []float64{1},
		WitnessOptimization: true,
	}
	rng := rand.New(rand.NewSource(6))
	inputs := randInputs(rng, cfg.N, cfg.D, 0, 1)
	inputs[2] = nil
	byz := []bvc.Byzantine{{ID: 2, Strategy: bvc.StrategyEquivocate, Target: bvc.Vector{0, 0}, Target2: bvc.Vector{1, 1}}}
	res, err := bvc.SimulateApproxAsync(cfg, inputs, byz, bvc.SimOptions{
		Seed: 7,
		Delay: bvc.DelaySpec{
			Kind: bvc.DelayConstant, Mean: time.Millisecond,
			StarveSet: []int{0}, StarveExtra: 200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyApprox(); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestSimulateRestrictedSync(t *testing.T) {
	cfg := bvc.Config{N: 5, F: 1, D: 2, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}}
	rng := rand.New(rand.NewSource(8))
	inputs := randInputs(rng, cfg.N, cfg.D, 0, 1)
	inputs[1] = nil
	byz := []bvc.Byzantine{{ID: 1, Strategy: bvc.StrategyLure, Target: bvc.Vector{1, 1}}}
	res, err := bvc.SimulateRestrictedSync(cfg, inputs, byz, bvc.SimOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyApprox(); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestSimulateRestrictedAsync(t *testing.T) {
	cfg := bvc.Config{N: 7, F: 1, D: 2, Epsilon: 0.25, Lo: []float64{0}, Hi: []float64{1}}
	rng := rand.New(rand.NewSource(10))
	inputs := randInputs(rng, cfg.N, cfg.D, 0, 1)
	inputs[6] = nil
	byz := []bvc.Byzantine{{ID: 6, Strategy: bvc.StrategyEquivocate, Target: bvc.Vector{0, 0}, Target2: bvc.Vector{1, 1}}}
	res, err := bvc.SimulateRestrictedAsync(cfg, inputs, byz, bvc.SimOptions{
		Seed:  11,
		Delay: bvc.DelaySpec{Kind: bvc.DelayExponential, Mean: 3 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyApprox(); err != nil {
		t.Fatalf("verification: %v", err)
	}
}

func TestSimulateValidationErrors(t *testing.T) {
	good := bvc.Config{N: 5, F: 1, D: 2}
	inputs := randInputs(rand.New(rand.NewSource(1)), 5, 2, 0, 1)
	if _, err := bvc.SimulateExact(good, inputs[:3], nil, bvc.SimOptions{}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := bvc.SimulateExact(good, inputs, []bvc.Byzantine{{ID: 9}}, bvc.SimOptions{}); err == nil {
		t.Error("out-of-range byzantine id accepted")
	}
	if _, err := bvc.SimulateExact(good, inputs, []bvc.Byzantine{
		{ID: 0, Strategy: bvc.StrategySilent}, {ID: 1, Strategy: bvc.StrategySilent},
	}, bvc.SimOptions{}); err == nil {
		t.Error("more byzantine processes than f accepted")
	}
	bad := bvc.Config{N: 3, F: 1, D: 2}
	if _, err := bvc.SimulateExact(bad, inputs[:3], nil, bvc.SimOptions{}); err == nil {
		t.Error("n below bound accepted")
	}
}

// TestSimulateRejectsBadSpecs holds every Simulate* entry point to the same
// input and Byzantine-spec checks; none may build a run from a bad spec.
func TestSimulateRejectsBadSpecs(t *testing.T) {
	cfg := bvc.Config{N: 7, F: 1, D: 2, Epsilon: 0.25, Lo: []float64{0}, Hi: []float64{1}}
	inputs := randInputs(rand.New(rand.NewSource(12)), cfg.N, cfg.D, 0, 1)
	entries := []struct {
		name string
		sim  func(bvc.Config, []bvc.Vector, []bvc.Byzantine, bvc.SimOptions) (*bvc.Result, error)
	}{
		{"Exact", bvc.SimulateExact},
		{"CoordinateWise", bvc.SimulateCoordinateWise},
		{"RestrictedSync", bvc.SimulateRestrictedSync},
		{"ApproxAsync", bvc.SimulateApproxAsync},
		{"RestrictedAsync", bvc.SimulateRestrictedAsync},
	}
	silent := func(id int) bvc.Byzantine { return bvc.Byzantine{ID: id, Strategy: bvc.StrategySilent} }
	cases := []struct {
		name   string
		inputs []bvc.Vector
		byz    []bvc.Byzantine
	}{
		{"wrong input count", inputs[:6], nil},
		{"out-of-range id", inputs, []bvc.Byzantine{silent(7)}},
		{"negative id", inputs, []bvc.Byzantine{silent(-1)}},
		{"duplicate id", inputs, []bvc.Byzantine{silent(6), silent(6)}},
		{"more than f", inputs, []bvc.Byzantine{silent(5), silent(6)}},
		{"lure target dimension", inputs, []bvc.Byzantine{
			{ID: 6, Strategy: bvc.StrategyLure, Target: bvc.Vector{1}}}},
		{"lure without target", inputs, []bvc.Byzantine{{ID: 6, Strategy: bvc.StrategyLure}}},
		{"equivocation Target dimension", inputs, []bvc.Byzantine{
			{ID: 6, Strategy: bvc.StrategyEquivocate, Target: bvc.Vector{0}, Target2: bvc.Vector{1, 1}}}},
		{"equivocation Target2 dimension", inputs, []bvc.Byzantine{
			{ID: 6, Strategy: bvc.StrategyEquivocate, Target: bvc.Vector{0, 0}, Target2: bvc.Vector{1, 1, 1}}}},
		{"crash target dimension", inputs, []bvc.Byzantine{
			{ID: 6, Strategy: bvc.StrategyCrash, Target: bvc.Vector{1}}}},
		{"crash empty target", inputs, []bvc.Byzantine{
			{ID: 6, Strategy: bvc.StrategyCrash, Target: bvc.Vector{}}}},
	}
	for _, e := range entries {
		// The control run: the same configuration with good specs succeeds,
		// so each rejection below is the spec's doing.
		good := []bvc.Byzantine{{ID: 6, Strategy: bvc.StrategyEquivocate, Target: bvc.Vector{0, 0}, Target2: bvc.Vector{1, 1}}}
		if _, err := e.sim(cfg, inputs, good, bvc.SimOptions{Seed: 1}); err != nil {
			t.Fatalf("%s: good spec rejected: %v", e.name, err)
		}
		for _, c := range cases {
			if _, err := e.sim(cfg, c.inputs, c.byz, bvc.SimOptions{Seed: 1}); err == nil {
				t.Errorf("%s: %s accepted", e.name, c.name)
			}
		}
	}
}

func TestSimulateDeterminism(t *testing.T) {
	cfg := bvc.Config{N: 4, F: 1, D: 1, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}}
	inputs := []bvc.Vector{{0}, {0.5}, {1}, {0.25}}
	run := func() []bvc.Vector {
		res, err := bvc.SimulateApproxAsync(cfg, inputs, nil, bvc.SimOptions{
			Seed:  42,
			Delay: bvc.DelaySpec{Kind: bvc.DelayUniform, Min: 0, Max: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Decisions()
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("non-deterministic simulation: %v vs %v", a, b)
			}
		}
	}
}

func TestMinProcessesAndGamma(t *testing.T) {
	if bvc.MinProcesses(bvc.ExactSync, 3, 1) != 5 {
		t.Error("MinProcesses exact d=3 f=1 should be 5")
	}
	if bvc.MinProcesses(bvc.ApproxAsync, 2, 1) != 5 {
		t.Error("MinProcesses async d=2 f=1 should be 5")
	}
	g := bvc.Gamma(bvc.ApproxAsync, 5, 1, false)
	if math.Abs(g-1.0/25) > 1e-12 {
		t.Errorf("gamma = %g, want 1/25", g)
	}
	if bvc.RoundBound(0.5, 8, 1) != 4 {
		t.Error("RoundBound(0.5, 8, 1) should be 4")
	}
}

func TestSafePointAPI(t *testing.T) {
	points := []bvc.Vector{{0, 0}, {4, 0}, {0, 4}, {4, 4}, {2, 2}}
	pt, err := bvc.SafePoint(points, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := bvc.SafeAreaContains(points, 1, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !in {
		t.Errorf("safe point %v not in Γ", pt)
	}
	empty, err := bvc.SafeAreaEmpty(points, 1)
	if err != nil || empty {
		t.Errorf("Γ should be non-empty: empty=%v err=%v", empty, err)
	}
	// Theorem 1 counterexample: basis + origin with f = 1 is empty.
	basis := []bvc.Vector{{1, 0}, {0, 1}, {0, 0}}
	empty, err = bvc.SafeAreaEmpty(basis, 1)
	if err != nil || !empty {
		t.Errorf("basis Γ should be empty: empty=%v err=%v", empty, err)
	}
	if _, err := bvc.SafePoint(basis, 1); err == nil {
		t.Error("SafePoint on empty Γ should error")
	}
}

func TestInConvexHullAPI(t *testing.T) {
	tri := []bvc.Vector{{0, 0}, {1, 0}, {0, 1}}
	in, err := bvc.InConvexHull(tri, bvc.Vector{0.2, 0.2})
	if err != nil || !in {
		t.Errorf("inside point: in=%v err=%v", in, err)
	}
	in, err = bvc.InConvexHull(tri, bvc.Vector{1, 1})
	if err != nil || in {
		t.Errorf("outside point: in=%v err=%v", in, err)
	}
	if _, err := bvc.InConvexHull(tri, bvc.Vector{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := bvc.InConvexHull(nil, bvc.Vector{1}); err == nil {
		t.Error("empty hull accepted")
	}
}

func TestTverbergPartitionAPI(t *testing.T) {
	// Heptagon: Figure 1.
	points := make([]bvc.Vector, 7)
	for k := range points {
		a := 2 * math.Pi * float64(k) / 7
		points[k] = bvc.Vector{math.Cos(a), math.Sin(a)}
	}
	blocks, pt, found, err := bvc.TverbergPartition(points, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("heptagon must admit a 3-partition")
	}
	if len(blocks) != 3 {
		t.Errorf("blocks = %d", len(blocks))
	}
	for _, blk := range blocks {
		var hullPts []bvc.Vector
		for _, idx := range blk {
			hullPts = append(hullPts, points[idx])
		}
		in, err := bvc.InConvexHull(hullPts, pt)
		if err != nil || !in {
			t.Errorf("tverberg point not in block %v (err=%v)", blk, err)
		}
	}
}

func TestRunAsyncCluster(t *testing.T) {
	cfg := bvc.Config{N: 4, F: 1, D: 1, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}}
	inputs := []bvc.Vector{{0}, {1}, {0.5}, {0.25}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	decisions, err := bvc.RunAsyncCluster(ctx, cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != cfg.N {
		t.Fatalf("decisions = %d", len(decisions))
	}
	for i := 1; i < len(decisions); i++ {
		if math.Abs(decisions[i][0]-decisions[0][0]) > cfg.Epsilon {
			t.Errorf("ε-agreement violated on live cluster: %v", decisions)
		}
	}
	for _, d := range decisions {
		if d[0] < 0 || d[0] > 1 {
			t.Errorf("decision %v outside input hull", d)
		}
	}
}

// TestRunAsyncClusterF2 runs the one-shot cluster at the asynchronous
// bound n = (d+2)f+1 with f = 2, where a decided process must keep
// relaying for the others to deliver (see core.AsyncNode.emit).
func TestRunAsyncClusterF2(t *testing.T) {
	cfg := bvc.Config{N: 7, F: 2, D: 1, Epsilon: 0.25, Lo: []float64{0}, Hi: []float64{1}}
	inputs := []bvc.Vector{{0}, {1}, {0.5}, {0.25}, {0.75}, {0.1}, {0.9}}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	decisions, err := bvc.RunAsyncCluster(ctx, cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decisions {
		if math.Abs(d[0]-decisions[0][0]) > cfg.Epsilon {
			t.Errorf("ε-agreement violated: %v", decisions)
		}
		if d[0] < 0 || d[0] > 1 {
			t.Errorf("decision %v outside the inputs' hull [0, 1]", d)
		}
	}
	waitGoroutines(t, base)
}

// TestRunAsyncClusterCanceled: a cancelled ctx returns promptly with the
// cancellation and leaves nothing running.
func TestRunAsyncClusterCanceled(t *testing.T) {
	cfg := bvc.Config{N: 4, F: 1, D: 1, Epsilon: 0.2, Lo: []float64{0}, Hi: []float64{1}}
	inputs := []bvc.Vector{{0}, {1}, {0.5}, {0.25}}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := bvc.RunAsyncCluster(ctx, cfg, inputs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("returned after %v", el)
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails unless the goroutine count falls back to base
// within 2 s.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the call", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResultVerifyErrorsAreTyped(t *testing.T) {
	cfg := bvc.Config{N: 4, F: 1, D: 3}
	inputs := []bvc.Vector{
		{2.0 / 3, 1.0 / 6, 1.0 / 6},
		{1.0 / 6, 2.0 / 3, 1.0 / 6},
		{1.0 / 6, 1.0 / 6, 2.0 / 3},
		nil,
	}
	byz := []bvc.Byzantine{{ID: 3, Strategy: bvc.StrategyLure, Target: bvc.Vector{0, 0, 0}}}
	res, err := bvc.SimulateCoordinateWise(cfg, inputs, byz, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verr := res.VerifyValidity()
	if verr == nil {
		t.Fatal("expected validity violation")
	}
	var generic error = verr
	if !errors.Is(generic, verr) {
		t.Error("error identity lost")
	}
}
