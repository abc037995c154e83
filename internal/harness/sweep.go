package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
)

// SweepCell is one grid point of the paper's (variant, n, d, f, adversary,
// delay, seed) parameter space: a fully specified simulated execution. The
// zero values of Epsilon (→ 0.05) and N (→ the paper's tight bound) are
// resolved by Normalize.
type SweepCell struct {
	// Variant is one of "exact", "approx", "rsync", "rasync".
	Variant string
	// N, D, F are the process count, dimension and fault bound. N = 0
	// selects the paper's tight bound for the variant.
	N, D, F int
	// Adversary is one of "none", "mixed", "silent", "equivocate", "lure",
	// "random". "mixed" fills all F Byzantine slots with a rotating
	// equivocate/silent/lure mix (the full-strength configuration of E10).
	Adversary string
	// Delay is "none" (synchronous variants), "constant", "uniform",
	// "exponential" or "shiftedexp".
	Delay string
	// Seed drives inputs, schedules and adversary randomness.
	Seed int64
	// Epsilon is the ε of ε-agreement (approximate variants; 0 → 0.05).
	Epsilon float64
}

// sweepAdversaries lists the accepted SweepCell.Adversary values.
var sweepAdversaries = []string{"none", "mixed", "silent", "equivocate", "lure", "random"}

// sweepDelays lists the accepted SweepCell.Delay values for asynchronous
// variants; synchronous variants use "none". "shiftedexp" is the
// shifted-exponential model (constant floor + exponential tail): the
// heavy-tailed stress schedule on links with a fixed minimum latency.
var sweepDelays = []string{"none", "constant", "uniform", "exponential", "shiftedexp"}

func (c SweepCell) variant() (bvc.Variant, error) {
	switch c.Variant {
	case "exact":
		return bvc.ExactSync, nil
	case "approx":
		return bvc.ApproxAsync, nil
	case "rsync":
		return bvc.RestrictedSync, nil
	case "rasync":
		return bvc.RestrictedAsync, nil
	default:
		return 0, fmt.Errorf("harness: unknown sweep variant %q", c.Variant)
	}
}

// Synchronous reports whether the cell's variant runs on the lock-step
// simulator (and therefore ignores the delay model).
func (c SweepCell) Synchronous() bool {
	return c.Variant == "exact" || c.Variant == "rsync"
}

// Normalize resolves defaults (tight-bound N, ε = 0.05, delay "none" for
// synchronous variants) and validates the cell. The returned cell is
// canonical: two descriptions of the same execution normalize to identical
// cells, so their Names coincide.
func (c SweepCell) Normalize() (SweepCell, error) {
	v, err := c.variant()
	if err != nil {
		return c, err
	}
	if c.D < 1 || c.F < 0 {
		return c, fmt.Errorf("harness: sweep cell d=%d f=%d invalid", c.D, c.F)
	}
	min := bvc.MinProcesses(v, c.D, c.F)
	if c.N == 0 {
		c.N = min
	}
	if c.N < min {
		return c, fmt.Errorf("harness: %s requires n ≥ %d for d=%d f=%d, got n=%d",
			c.Variant, min, c.D, c.F, c.N)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	if c.Epsilon < 0 {
		return c, fmt.Errorf("harness: sweep cell ε=%g invalid", c.Epsilon)
	}
	if c.Synchronous() {
		c.Delay = "none"
	} else if c.Delay == "" || c.Delay == "none" {
		c.Delay = "constant"
	}
	okDelay := false
	for _, d := range sweepDelays {
		if c.Delay == d {
			okDelay = true
		}
	}
	if !okDelay {
		return c, fmt.Errorf("harness: unknown sweep delay %q", c.Delay)
	}
	okAdv := false
	for _, a := range sweepAdversaries {
		if c.Adversary == a {
			okAdv = true
		}
	}
	if !okAdv {
		return c, fmt.Errorf("harness: unknown sweep adversary %q", c.Adversary)
	}
	return c, nil
}

// Name returns the cell's stable identifier, e.g.
// "sweep/rasync/n15d3f2/mixed/exponential/s1"; error messages and the
// grid test's subtests are named by it.
func (c SweepCell) Name() string {
	return fmt.Sprintf("sweep/%s/n%dd%df%d/%s/%s/s%d",
		c.Variant, c.N, c.D, c.F, c.Adversary, c.Delay, c.Seed)
}

// SweepOutcome reports one executed sweep cell.
type SweepOutcome struct {
	// Cell is the normalized cell that ran.
	Cell SweepCell
	// Budget is the γ-aware round budget the run used.
	Budget RoundBudget
	// Rounds is the executed round count of a correct process; Messages the
	// total messages carried.
	Rounds   int
	Messages int64
	// Verified reports the overall geometric verification verdict;
	// VerifyMode names the regime ("exact", "eps-agreement" or
	// "contraction+validity"). Contracted and ValidOK break the verdict
	// down: whether the correct processes' range shrank over the run
	// (approximate variants with histories) and whether every decision
	// stayed inside the correct inputs' hull.
	Verified   bool
	VerifyMode string
	Contracted bool
	ValidOK    bool
	// SpreadStart / SpreadEnd are the correct processes' per-coordinate
	// range before and after the run (approximate variants with recorded
	// histories; 0 otherwise).
	SpreadStart, SpreadEnd float64
}

// byzantineFor builds the cell's adversary set. "mixed" fills all F slots
// with the rotating strategy mix of E10; the single-strategy names place
// one Byzantine process (matching E2's per-strategy rows).
func (c SweepCell) byzantineFor() []bvc.Byzantine {
	lo := make(bvc.Vector, c.D)
	hi := make(bvc.Vector, c.D)
	for i := 0; i < c.D; i++ {
		lo[i] = -3
		hi[i] = 7
	}
	one := make(bvc.Vector, c.D)
	for i := range one {
		one[i] = 1
	}
	switch c.Adversary {
	case "none":
		return nil
	case "mixed":
		strategies := []bvc.Strategy{bvc.StrategyEquivocate, bvc.StrategySilent, bvc.StrategyLure}
		byz := make([]bvc.Byzantine, 0, c.F)
		for k := 0; k < c.F; k++ {
			b := bvc.Byzantine{ID: c.N - 1 - k, Strategy: strategies[k%len(strategies)]}
			switch b.Strategy {
			case bvc.StrategyEquivocate:
				b.Target, b.Target2 = lo, hi
			case bvc.StrategyLure:
				b.Target = hi
			}
			byz = append(byz, b)
		}
		return byz
	case "silent":
		return []bvc.Byzantine{{ID: c.N - 1, Strategy: bvc.StrategySilent}}
	case "equivocate":
		return []bvc.Byzantine{{ID: c.N - 1, Strategy: bvc.StrategyEquivocate, Target: lo, Target2: hi}}
	case "lure":
		return []bvc.Byzantine{{ID: c.N - 1, Strategy: bvc.StrategyLure, Target: one}}
	case "random":
		return []bvc.Byzantine{{ID: c.N - 1, Strategy: bvc.StrategyRandom}}
	default:
		return nil
	}
}

func (c SweepCell) delaySpec() bvc.DelaySpec {
	switch c.Delay {
	case "uniform":
		return bvc.DelaySpec{Kind: bvc.DelayUniform, Min: time.Millisecond, Max: 10 * time.Millisecond}
	case "exponential":
		return bvc.DelaySpec{Kind: bvc.DelayExponential, Mean: 3 * time.Millisecond}
	case "shiftedexp":
		return bvc.DelaySpec{Kind: bvc.DelayShiftedExp, Min: time.Millisecond, Mean: 3 * time.Millisecond}
	default:
		return bvc.DelaySpec{Kind: bvc.DelayConstant, Mean: time.Millisecond}
	}
}

// RunSweepCell executes one sweep cell under its γ-aware round budget and
// verifies the execution geometrically. Full-budget runs must satisfy the
// variant's complete correctness conditions (Exact BVC: Agreement +
// Validity; approximate: ε-Agreement + Validity). Horizon runs — where the
// analytic termination bound has blown up with γ's combinatorial decay —
// must contract the correct processes' range over the horizon while every
// decision stays inside the correct inputs' hull (validity) — the
// per-round guarantees the termination proof iterates. The cell runs on the
// shared default Γ engine.
func RunSweepCell(c SweepCell) (*SweepOutcome, error) {
	return runSweepCell(c, bvc.SimOptions{})
}

// runSweepCell is RunSweepCell on the Γ engine of opts; the cell supplies
// the seed and delay.
func runSweepCell(c SweepCell, opts bvc.SimOptions) (*SweepOutcome, error) {
	c, err := c.Normalize()
	if err != nil {
		return nil, err
	}
	v, err := c.variant()
	if err != nil {
		return nil, err
	}
	budget := GammaBudget(v, c.N, c.F, 1, c.Epsilon, c.Variant == "approx")
	cfg := bvc.Config{
		N: c.N, F: c.F, D: c.D,
		Epsilon: c.Epsilon,
		Lo:      []float64{0}, Hi: []float64{1},
		// The witness optimization is what makes the §3.2 algorithm
		// practical at sweep scale (|Zi| ≤ n vs C(n, n−f)); grids always
		// use it.
		WitnessOptimization: c.Variant == "approx",
	}
	if !budget.Full {
		cfg.MaxRounds = budget.Rounds
	}

	rng := rand.New(rand.NewSource(c.Seed))
	inputs := UniformInputs(rng, c.N, c.D, 0, 1)
	byz := c.byzantineFor()
	for _, b := range byz {
		inputs[b.ID] = nil
	}
	opts = runOpts(opts, c.Seed, c.delaySpec())

	var res *bvc.Result
	switch c.Variant {
	case "exact":
		res, err = bvc.SimulateExact(cfg, inputs, byz, opts)
	case "approx":
		res, err = bvc.SimulateApproxAsync(cfg, inputs, byz, opts)
	case "rsync":
		res, err = bvc.SimulateRestrictedSync(cfg, inputs, byz, opts)
	case "rasync":
		res, err = bvc.SimulateRestrictedAsync(cfg, inputs, byz, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: sweep cell %s: %w", c.Name(), err)
	}

	out := &SweepOutcome{Cell: c, Budget: budget, Messages: res.Messages}
	for _, p := range res.Processes {
		if !p.Byzantine {
			out.Rounds = p.Rounds
			break
		}
	}
	spreads := historySpreads(res)
	if len(spreads) > 0 {
		out.SpreadStart = spreads[0]
		out.SpreadEnd = spreads[len(spreads)-1]
	}
	out.Contracted = len(spreads) > 1 && spreads[len(spreads)-1] < spreads[0]
	out.ValidOK = res.VerifyValidity() == nil
	switch {
	case c.Variant == "exact":
		out.VerifyMode = "exact"
		out.Verified = res.VerifyExact() == nil
	case budget.Full:
		out.VerifyMode = "eps-agreement"
		out.Verified = res.VerifyApprox() == nil
	default:
		out.VerifyMode = "contraction+validity"
		out.Verified = out.Contracted && out.ValidOK
	}
	return out, nil
}
