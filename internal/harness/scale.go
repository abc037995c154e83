package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
)

// E10RowCells are E10's restricted/async γ-budget rows (run with the
// sweep's seed). These n = 15 and formerly fragile cells are where the
// incremental Γ layers (sub-family memo, round-level memo, warm-started
// solves) must show; TestE10RowBudgets pins their Γ-solve, reuse-rate and
// allocation counts.
var E10RowCells = []SweepCell{
	{Variant: "rsync", D: 3, F: 2, N: 15, Adversary: "mixed", Seed: 1},
	{Variant: "approx", D: 4, F: 2, N: 15, Adversary: "lure", Delay: "exponential", Seed: 1},
	// Formerly fragile cells (restricted f ≥ 2 at the Lemma-1 threshold),
	// unlocked by the revised simplex core: the restricted-sync tight
	// bound and a restricted-async f = 2 row. The rasync row runs the
	// shifted-exponential delay model.
	{Variant: "rsync", D: 3, F: 2, N: 11, Adversary: "mixed", Seed: 1},
	{Variant: "rasync", D: 2, F: 2, N: 13, Adversary: "mixed", Delay: "shiftedexp", Seed: 1},
}

// E10ScaleSweep pushes the verified grids to the largest (n, d, f)
// configurations the engine stack makes practical — up to n = 13 processes
// at d ≥ 3 with f > 1, the regime the lifted Tverberg Γ-point method and
// the Γ engine's parallel walks exist for. Exact
// BVC runs at the tight bound under full-strength adversaries (f Byzantine
// processes at once, unlike E2's single-adversary rows); the asynchronous
// algorithm runs at n = 13 on a fixed horizon and must contract its range
// while staying valid. Every execution is verified.
func E10ScaleSweep(seed int64, opts bvc.SimOptions) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Scale sweep: largest verified (n, d, f) grids",
		Claim: "Theorems 3 and 5 hold unchanged at n = 13, d ≥ 3, f up to 3 with full-strength adversaries; at n = 15 the per-round contraction guarantees hold under γ-aware budgets",
		Columns: []string{
			"variant", "d", "f", "n", "adversary", "rounds", "messages", "agreement", "validity",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))

	// Exact BVC at the tight synchronous bound. The adversary set scales
	// with f: all f Byzantine slots are used at once, mixing strategies as
	// the sweep's "mixed" adversary does.
	for _, df := range [][2]int{{3, 2}, {4, 2}, {3, 3}} {
		d, f := df[0], df[1]
		n := bvc.MinProcesses(bvc.ExactSync, d, f)
		cfg := bvc.Config{N: n, F: f, D: d, Lo: []float64{0}, Hi: []float64{1}}
		for _, adv := range []string{"none", fmt.Sprintf("mixed×%d", f)} {
			var byz []bvc.Byzantine
			if adv != "none" {
				byz = SweepCell{N: n, F: f, D: d, Adversary: "mixed"}.byzantineFor()
			}
			inputs := UniformInputs(rng, n, d, 0, 1)
			for _, b := range byz {
				inputs[b.ID] = nil
			}
			res, err := bvc.SimulateExact(cfg, inputs, byz, runOpts(opts, seed, bvc.DelaySpec{}))
			if err != nil {
				return nil, fmt.Errorf("E10 exact d=%d f=%d %s: %w", d, f, adv, err)
			}
			agreeOK := res.VerifyExact() == nil
			validOK := res.VerifyValidity() == nil
			if !agreeOK || !validOK {
				t.Pass = false
			}
			t.AddRow("exact", d, f, n, adv, f+1, res.Messages, check(agreeOK), check(validOK))
		}
	}

	// Approximate asynchronous BVC at n = 13 (d = 4, f = 2) with the
	// Appendix-F witness optimization, on a fixed horizon under a lure
	// adversary and heavy-tailed delays. The full termination rule needs
	// Θ(n² log(1/ε)) rounds at this scale, so the horizon run checks the
	// per-round guarantees instead: the range must contract and every
	// decision must stay inside the correct inputs' hull.
	{
		const d, f, horizon = 4, 2, 4
		n := bvc.MinProcesses(bvc.ApproxAsync, d, f)
		cfg := bvc.Config{
			N: n, F: f, D: d, Epsilon: 0.05,
			Lo: []float64{0}, Hi: []float64{1},
			WitnessOptimization: true,
			MaxRounds:           horizon,
		}
		one := make(bvc.Vector, d)
		for i := range one {
			one[i] = 1
		}
		inputs := UniformInputs(rng, n, d, 0, 1)
		byz := []bvc.Byzantine{
			{ID: n - 1, Strategy: bvc.StrategyLure, Target: one},
			{ID: n - 2, Strategy: bvc.StrategySilent},
		}
		for _, b := range byz {
			inputs[b.ID] = nil
		}
		res, err := bvc.SimulateApproxAsync(cfg, inputs, byz, runOpts(opts, seed,
			bvc.DelaySpec{Kind: bvc.DelayExponential, Mean: 3 * time.Millisecond}))
		if err != nil {
			return nil, fmt.Errorf("E10 async n=%d: %w", n, err)
		}
		spreads := historySpreads(res)
		contracted := len(spreads) > 1 && spreads[len(spreads)-1] < spreads[0]
		validOK := res.VerifyValidity() == nil
		if !contracted || !validOK {
			t.Pass = false
		}
		t.AddRow("approx-async/witness", d, f, n, "lure+silent", horizon, res.Messages,
			check(contracted)+" (ρ contracts)", check(validOK))
		if len(spreads) > 1 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"async n=%d range: ρ[0]=%.4g → ρ[%d]=%.4g over the fixed horizon",
				n, spreads[0], len(spreads)-1, spreads[len(spreads)-1]))
		}
	}
	// Past n = 13 the analytic termination bounds of the restricted
	// variants blow up with γ's combinatorial decay (restricted sync at
	// n = 15, f = 2 would need ≈ 4.7·10³ rounds, restricted async ≈
	// 3.2·10⁴), so the n = 15 rows run
	// under the γ-aware budget (GammaBudget): a ⌈log₂(1/γ)⌉ horizon judged
	// by range contraction plus validity — the per-round guarantees the
	// termination proof iterates. TestGridCellsVerify's cells use the same
	// budget.
	for _, cell := range E10RowCells {
		cell.Seed = seed
		out, err := runSweepCell(cell, opts)
		if err != nil {
			return nil, fmt.Errorf("E10 γ-budget %s: %w", cell.Variant, err)
		}
		if !out.Verified {
			t.Pass = false
		}
		t.AddRow(out.Cell.Variant+"/γ-budget", out.Cell.D, out.Cell.F, out.Cell.N,
			out.Cell.Adversary, out.Rounds, out.Messages,
			check(out.Contracted)+" (ρ contracts)", check(out.ValidOK))
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s n=%d: γ=%.3g ⇒ analytic bound %d rounds; γ-budget horizon %d, ρ %.4g → %.4g",
			out.Cell.Variant, out.Cell.N, out.Budget.Gamma,
			bvc.RoundBound(out.Budget.Gamma, 1, out.Cell.Epsilon),
			out.Budget.Rounds, out.SpreadStart, out.SpreadEnd))
	}
	t.Notes = append(t.Notes,
		"exact rows use all f Byzantine slots simultaneously (equivocate/silent/lure mix)",
		"Γ-points at these sizes route through the lifted Tverberg search (the joint lex-min LP is combinatorial here)")
	return t, nil
}
