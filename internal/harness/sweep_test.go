package harness

import (
	"math"
	"testing"

	"repro"
)

func TestGammaBudgetExact(t *testing.T) {
	b := GammaBudget(bvc.ExactSync, 9, 2, 1, 0.05, false)
	if !b.Full || b.Rounds != 3 {
		t.Errorf("exact budget = %+v, want full with f+1 = 3 rounds", b)
	}
}

func TestGammaBudgetFullWhenAffordable(t *testing.T) {
	// Witness-optimized async at n = 5, f = 1: γ = 1/25, analytic bound
	// 75 — over the cap, so even small sweeps run the horizon. A coarse ε
	// brings the bound under the cap and the budget must stay analytic.
	b := GammaBudget(bvc.ApproxAsync, 5, 1, 1, 0.5, true)
	gamma := bvc.Gamma(bvc.ApproxAsync, 5, 1, true)
	if want := bvc.RoundBound(gamma, 1, 0.5); !b.Full || b.Rounds != want {
		t.Errorf("budget = %+v, want full analytic bound %d", b, want)
	}
}

func TestGammaBudgetHorizonScalesWithGamma(t *testing.T) {
	// Restricted async at n = 15, f = 2: γ = 1/(15·C(13,9)) ≈ 9.3·10⁻⁵,
	// analytic bound ≈ 3.2·10⁴ rounds. The γ-aware horizon must be
	// ⌈log₂(1/γ)⌉, clamped into [4, 24].
	b := GammaBudget(bvc.RestrictedAsync, 15, 2, 1, 0.05, false)
	if b.Full {
		t.Fatalf("budget = %+v, want horizon mode", b)
	}
	gamma := bvc.Gamma(bvc.RestrictedAsync, 15, 2, false)
	want := int(math.Ceil(math.Log2(1 / gamma)))
	if want > 24 {
		want = 24
	}
	if b.Rounds != want {
		t.Errorf("horizon = %d, want ⌈log₂(1/γ)⌉ = %d", b.Rounds, want)
	}
	if analytic := bvc.RoundBound(gamma, 1, 0.05); analytic < 1000 {
		t.Errorf("test premise broken: analytic bound %d is not blown up", analytic)
	}
	// The horizon grows only polynomially in n while the analytic bound
	// explodes combinatorially.
	b17 := GammaBudget(bvc.RestrictedAsync, 17, 2, 1, 0.05, false)
	if b17.Full || b17.Rounds > 24 {
		t.Errorf("n=17 budget = %+v, want clamped horizon", b17)
	}
}

func TestSweepCellNormalize(t *testing.T) {
	c, err := SweepCell{Variant: "rsync", D: 2, F: 1, Adversary: "none", Delay: "uniform"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.N != bvc.MinProcesses(bvc.RestrictedSync, 2, 1) {
		t.Errorf("tight bound n = %d", c.N)
	}
	if c.Delay != "none" {
		t.Errorf("synchronous cell kept delay %q", c.Delay)
	}
	if c.Epsilon != 0.05 {
		t.Errorf("default ε = %g", c.Epsilon)
	}
	if _, err := (SweepCell{Variant: "exact", D: 2, F: 2, N: 5, Adversary: "none"}).Normalize(); err == nil {
		t.Error("below-bound cell normalized without error")
	}
	if _, err := (SweepCell{Variant: "warp", D: 2, F: 1, Adversary: "none"}).Normalize(); err == nil {
		t.Error("unknown variant normalized without error")
	}
}

// TestRunSweepCellFullBudget: an exact cell runs to termination and
// verifies under the full regime.
func TestRunSweepCellFullBudget(t *testing.T) {
	out, err := RunSweepCell(SweepCell{Variant: "exact", D: 2, F: 1, Adversary: "equivocate", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified || out.VerifyMode != "exact" || !out.Budget.Full {
		t.Errorf("outcome %+v, want verified full-budget exact run", out)
	}
	if out.Rounds != out.Cell.F+1 {
		t.Errorf("rounds = %d, want f+1 = %d", out.Rounds, out.Cell.F+1)
	}
}

// TestRunSweepCellHorizonBudget: a restricted cell over the cap runs the
// γ-horizon and is judged by contraction + validity.
func TestRunSweepCellHorizonBudget(t *testing.T) {
	out, err := RunSweepCell(SweepCell{Variant: "rsync", D: 2, F: 1, Adversary: "lure", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Budget.Full {
		t.Fatalf("budget %+v, want horizon mode", out.Budget)
	}
	if out.Rounds != out.Budget.Rounds {
		t.Errorf("executed %d rounds, budget %d", out.Rounds, out.Budget.Rounds)
	}
	if !out.Verified || out.VerifyMode != "contraction+validity" || !out.Contracted || !out.ValidOK {
		t.Errorf("outcome %+v, want contracted and valid", out)
	}
	if !(out.SpreadEnd < out.SpreadStart) {
		t.Errorf("range did not contract: %g → %g", out.SpreadStart, out.SpreadEnd)
	}
}

// TestRunSweepCellDeterministic: identical cells produce identical
// measured outcomes.
func TestRunSweepCellDeterministic(t *testing.T) {
	cell := SweepCell{Variant: "approx", D: 2, F: 1, Adversary: "mixed", Delay: "exponential", Seed: 11}
	a, err := RunSweepCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweepCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.Rounds != b.Rounds ||
		a.SpreadStart != b.SpreadStart || a.SpreadEnd != b.SpreadEnd || a.Verified != b.Verified {
		t.Errorf("re-run diverged:\n%+v\n%+v", a, b)
	}
}

// gridCells returns the cells TestGridCellsVerify runs: the paper's tight
// bounds (n ≥ max(3f+1, (d+1)f+1) sync, n ≥ (d+2)f+1 async) at d ≤ 4,
// f ≤ 3 and n ≤ 15, under no adversary and the full-strength mixed one.
// Each grid keeps the n within slack of its cell's bound, and a cell two
// grids share runs once, under the first grid that lists it. The first
// grid is the formerly fragile region (restricted f ≥ 2 at and above the
// Lemma-1 threshold); its n ≤ 13 cells are the -short subset.
func gridCells() (cells []SweepCell, short map[string]bool) {
	grids := []struct {
		variants     []string
		dims, faults []int
		slack        int
		delays       []string
		short        bool
	}{
		{[]string{"rsync", "rasync"}, []int{2, 3, 4}, []int{2, 3}, 6, []string{"shiftedexp"}, true},
		{[]string{"exact", "approx", "rsync"}, []int{2, 3, 4}, []int{1, 2, 3}, 2, []string{"exponential"}, false},
		{[]string{"rasync"}, []int{2, 3, 4}, []int{1, 2}, 6, []string{"exponential", "shiftedexp"}, false},
	}
	short = make(map[string]bool)
	seen := make(map[string]bool)
	for _, g := range grids {
		for _, variant := range g.variants {
			for _, d := range g.dims {
				for _, f := range g.faults {
					for _, n := range []int{9, 11, 13, 15} {
						for _, adv := range []string{"none", "mixed"} {
							for _, delay := range g.delays {
								c, err := SweepCell{Variant: variant, N: n, D: d, F: f, Adversary: adv, Delay: delay, Seed: 1}.Normalize()
								if err != nil {
									continue // n below the bound: no such cell
								}
								v, _ := c.variant()
								if n-bvc.MinProcesses(v, d, f) > g.slack || seen[c.Name()] {
									continue
								}
								seen[c.Name()] = true
								cells = append(cells, c)
								if g.short && n <= 13 {
									short[c.Name()] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, short
}

// TestGridCellsVerify runs every grid cell and requires each to verify
// under its γ-aware budget: exact agreement and validity, ε-agreement and
// validity, or contraction and validity over the horizon. -short runs only
// the fragile region's n ≤ 13 cells.
func TestGridCellsVerify(t *testing.T) {
	cells, short := gridCells()
	if len(cells) != 110 || len(short) != 16 {
		t.Fatalf("grid has %d cells (%d short), want 110 (16)", len(cells), len(short))
	}
	for _, c := range cells {
		if testing.Short() && !short[c.Name()] {
			continue
		}
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			out, err := RunSweepCell(c)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Verified {
				t.Errorf("not verified: %+v", out)
			}
		})
	}
}
