package harness

import (
	"math"

	"repro"
)

// Round-budget tuning knobs. FullTerminationCap is the largest analytic
// round bound a sweep is willing to execute to completion; beyond it the
// γ-aware fixed horizon takes over. The horizon clamp keeps pathological γ
// values (γ → 0 at n ≥ 17 restricted grids) from re-introducing the blowup
// the budget exists to avoid.
const (
	fullTerminationCap = 64
	minHorizon         = 4
	maxHorizon         = 24
)

// RoundBudget is a γ-aware execution budget for one approximate-variant
// run. When Full is true the analytic termination bound is affordable: run
// it unchanged (Rounds is that bound) and judge the execution by full
// ε-agreement plus validity. When Full is false the analytic bound has
// blown up with γ's combinatorial decay in n; run the fixed horizon Rounds
// instead and judge the execution by per-round range contraction plus
// validity — the per-round guarantees (paper eqs. (12)/(13)) that the
// termination proof iterates.
type RoundBudget struct {
	// Rounds is the round horizon to execute (Config.MaxRounds for
	// horizon-mode runs; the analytic bound for full runs).
	Rounds int
	// Full reports whether Rounds is the analytic termination bound.
	Full bool
	// Gamma is the variant's contraction weight at this (n, f).
	Gamma float64
}

// GammaBudget computes the γ-aware round budget for an approximate variant
// at (n, f) with input range rng and agreement parameter eps. The analytic
// bound 1+⌈log_{1/(1−γ)}(rng/ε)⌉ grows like (1/γ)·ln(rng/ε), and for the
// restricted variants γ = 1/(n·C(n, n−f)) (sync) or 1/(n·C(n−f, n−3f))
// (async) decays combinatorially in n — at n = 15, f = 2 the restricted
// asynchronous bound is already ≈ 3.2·10⁴ rounds. Whenever the analytic
// bound exceeds FullTerminationCap, GammaBudget returns a fixed horizon
// scaled to γ's decay, ⌈log₂(1/γ)⌉ clamped into [4, 24]: enough rounds
// that measured contraction is unambiguous (observed per-round ratios are
// ≈ 0.1–0.5, far below 1−γ; see E5/F2), while growing only logarithmically
// in 1/γ — i.e. polynomially in n — as the grid scales.
//
// Exact BVC has no contraction budget (it terminates in f+1 rounds);
// GammaBudget returns Full with Rounds = f+1 for it so callers can treat
// every variant uniformly.
func GammaBudget(v bvc.Variant, n, f int, rng, eps float64, witnessOpt bool) RoundBudget {
	if v == bvc.ExactSync {
		return RoundBudget{Rounds: f + 1, Full: true}
	}
	gamma := bvc.Gamma(v, n, f, witnessOpt)
	analytic := bvc.RoundBound(gamma, rng, eps)
	if analytic <= fullTerminationCap {
		return RoundBudget{Rounds: analytic, Full: true, Gamma: gamma}
	}
	horizon := minHorizon
	if gamma > 0 && gamma < 1 {
		horizon = int(math.Ceil(math.Log2(1 / gamma)))
	}
	if horizon < minHorizon {
		horizon = minHorizon
	}
	if horizon > maxHorizon {
		horizon = maxHorizon
	}
	return RoundBudget{Rounds: horizon, Gamma: gamma}
}
