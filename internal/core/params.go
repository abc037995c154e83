// Package core implements the Byzantine vector consensus algorithms of
// Vaidya & Garg (PODC 2013) on the substrates in this repository:
//
//   - Exact BVC (synchronous, §2.2): Byzantine-broadcast every input with
//     EIG, then decide a deterministic point of the safe area Γ(S);
//     requires n ≥ max(3f+1, (d+1)f+1).
//   - Approximate BVC (asynchronous, §3.2): per round, obtain Bi[t] from
//     the AAD witness mechanism, average one safe point per candidate
//     subset, and terminate after the analytic round bound; requires
//     n ≥ (d+2)f+1. The Appendix-F witness optimization (|Zi| ≤ n,
//     γ = 1/n²) is available as a switch.
//   - Restricted-round approximate BVC (§4): one state exchange per round;
//     n ≥ (d+2)f+1 synchronous, n ≥ (d+4)f+1 asynchronous.
//   - Coordinate-wise scalar consensus (§1): the baseline whose vector-
//     validity violation motivates the paper.
//
// All algorithms are event-driven state machines over internal/sim, so the
// same code runs on the deterministic simulator and on live transports.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/safearea"
)

// Variant selects which of the paper's algorithms is meant when validating
// parameters or computing resilience bounds.
type Variant int

// Algorithm variants.
const (
	// VariantExactSync is Exact BVC in a synchronous system (§2.2).
	VariantExactSync Variant = iota + 1
	// VariantApproxAsync is approximate BVC in an asynchronous system
	// using the AAD witness exchange (§3.2).
	VariantApproxAsync
	// VariantRestrictedSync is the one-exchange-per-round synchronous
	// algorithm (§4).
	VariantRestrictedSync
	// VariantRestrictedAsync is the one-exchange-per-round asynchronous
	// algorithm (§4).
	VariantRestrictedAsync
)

func (v Variant) String() string {
	switch v {
	case VariantExactSync:
		return "exact-sync"
	case VariantApproxAsync:
		return "approx-async"
	case VariantRestrictedSync:
		return "restricted-sync"
	case VariantRestrictedAsync:
		return "restricted-async"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// MinProcesses returns the paper's tight bound on the number of processes
// for the variant with the given dimension and fault bound:
//
//	exact sync:        max(3f+1, (d+1)f+1)   (Theorems 1, 3)
//	approx async:      (d+2)f+1              (Theorems 4, 5)
//	restricted sync:   (d+2)f+1              (Theorem 6)
//	restricted async:  (d+4)f+1              (Theorem 6)
func MinProcesses(v Variant, d, f int) int {
	switch v {
	case VariantExactSync:
		a := 3*f + 1
		b := (d+1)*f + 1
		if a > b {
			return a
		}
		return b
	case VariantApproxAsync, VariantRestrictedSync:
		return (d+2)*f + 1
	case VariantRestrictedAsync:
		return (d+4)*f + 1
	default:
		return 0
	}
}

// Params carries the common configuration of every algorithm.
type Params struct {
	// N is the number of processes, F the Byzantine bound, D the vector
	// dimension.
	N, F, D int
	// Epsilon is the ε of ε-agreement (approximate variants only).
	Epsilon float64
	// Bounds is the a-priori input box ([ν, U]^d in the paper); required
	// by the approximate variants' termination rule.
	Bounds geometry.Box
	// Method must be 0 or safearea.MethodAuto, which mean the same: the
	// Γ-point rule is safearea's ladder alone, and Validate refuses any
	// other value rather than ignore it. The field remains only because
	// bench/replay.go sets it.
	Method safearea.Method
	// MaxRounds, when positive, caps the round horizon of the restricted
	// variants below the analytic termination bound. The analytic bound
	// grows like 1/γ and γ decays combinatorially in n, so large grids run
	// on a fixed horizon instead and are judged by per-round contraction
	// plus validity (see internal/harness.GammaBudget). Exact BVC ignores
	// it; the §3.2 asynchronous algorithm has its own AsyncConfig.MaxRounds.
	MaxRounds int
	// Engine computes the Γ-points (worker pool + memoization). Nil selects
	// the process-wide DefaultEngine; results are bit-identical for every
	// engine configuration, so this is purely a performance/resource knob.
	Engine *Engine
}

// engine resolves the Γ-point engine for this parameter set.
func (p Params) engine() *Engine {
	if p.Engine != nil {
		return p.Engine
	}
	return defaultEngine
}

// Validate checks the parameters for the given variant, including the
// paper's tight resilience bound.
func (p Params) Validate(v Variant) error {
	if err := p.checkShape(); err != nil {
		return err
	}
	if want := MinProcesses(v, p.D, p.F); p.N < want {
		return fmt.Errorf("core: %v requires n ≥ %d for d=%d f=%d, got n=%d", v, want, p.D, p.F, p.N)
	}
	switch v {
	case VariantApproxAsync, VariantRestrictedSync, VariantRestrictedAsync:
		if !(p.Epsilon > 0) {
			return fmt.Errorf("core: %v requires ε > 0, got %g", v, p.Epsilon)
		}
		if err := p.Bounds.Validate(); err != nil {
			return fmt.Errorf("core: %v bounds: %w", v, err)
		}
		if p.Bounds.Dim() != p.D {
			return fmt.Errorf("core: bounds dimension %d, want %d", p.Bounds.Dim(), p.D)
		}
	case VariantExactSync:
		// No ε or bounds needed.
	default:
		return fmt.Errorf("core: unknown variant %v", v)
	}
	return nil
}

// checkShape is the part of Validate every node constructor shares, the
// coordinate-wise baseline included: dimension, fault bound and Method.
func (p Params) checkShape() error {
	if p.D < 1 {
		return fmt.Errorf("core: dimension d=%d, want ≥ 1", p.D)
	}
	if p.F < 0 {
		return fmt.Errorf("core: fault bound f=%d, want ≥ 0", p.F)
	}
	if p.Method != 0 && p.Method != safearea.MethodAuto {
		return fmt.Errorf("core: Γ-point method %v, want auto (the ladder is the only rule)", p.Method)
	}
	return nil
}

// CheckInput validates a process input vector against the parameters.
func (p Params) CheckInput(x geometry.Vector, needBounds bool) error {
	if x.Dim() != p.D {
		return fmt.Errorf("core: input dimension %d, want %d", x.Dim(), p.D)
	}
	if !x.IsFinite() {
		return errors.New("core: input has non-finite coordinates")
	}
	if needBounds && !p.Bounds.Contains(x, 1e-9) {
		return fmt.Errorf("core: input %v outside bounds [%v, %v]", x, p.Bounds.Lo, p.Bounds.Hi)
	}
	return nil
}

// Gamma returns the per-round contraction weight γ of the variant
// (paper eq. (11) and Appendix F):
//
//	approx async, full Zi:        γ = 1 / (n·C(n, n−f))
//	approx async, witness-opt:    γ = 1 / n²
//	restricted sync:              γ = 1 / (n·C(n, n−f))
//	restricted async:             γ = 1 / (n·C(n−f, n−3f))
//
// The per-round range contraction factor is 1−γ.
func Gamma(v Variant, n, f int, witnessOpt bool) float64 {
	switch v {
	case VariantApproxAsync:
		if witnessOpt {
			return 1 / (float64(n) * float64(n))
		}
		return 1 / (float64(n) * float64(combin.Binomial(n, n-f)))
	case VariantRestrictedSync:
		return 1 / (float64(n) * float64(combin.Binomial(n, n-f)))
	case VariantRestrictedAsync:
		return 1 / (float64(n) * float64(combin.Binomial(n-f, n-3*f)))
	default:
		return 0
	}
}

// RoundBound returns the paper's termination round count
// 1 + ⌈log_{1/(1−γ)} (U−ν)/ε⌉ for contraction weight gamma, input range
// rng = U−ν and agreement parameter eps.
func RoundBound(gamma, rng, eps float64) int {
	if rng <= eps || gamma <= 0 || gamma >= 1 {
		return 1
	}
	// log_{1/(1−γ)} x = ln x / −ln(1−γ).
	r := math.Log(rng/eps) / (-math.Log1p(-gamma))
	return 1 + int(math.Ceil(r))
}

// StateMsg is the one-exchange-per-round message of the restricted
// algorithms (§4): the sender's current vector state tagged by round.
type StateMsg struct {
	Round int
	Value geometry.Vector
}
