// Package bvc is a Go implementation of Byzantine vector consensus (BVC)
// from Vaidya & Garg, "Byzantine Vector Consensus in Complete Graphs"
// (PODC 2013): n processes, each holding a d-dimensional vector, agree on a
// vector guaranteed to lie inside the convex hull of the correct processes'
// inputs, despite up to f Byzantine processes.
//
// The package provides:
//
//   - Exact BVC for synchronous systems (n ≥ max(3f+1, (d+1)f+1)),
//   - Approximate BVC for asynchronous systems (n ≥ (d+2)f+1), with the
//     paper's Appendix-F witness optimization,
//   - the restricted-round variants of §4 (n ≥ (d+2)f+1 synchronous,
//     n ≥ (d+4)f+1 asynchronous),
//   - the coordinate-wise scalar-consensus baseline the paper's
//     introduction warns about,
//   - deterministic simulation (seeded adversarial schedules, Byzantine
//     behaviour library, execution verification), and
//   - live execution of the asynchronous algorithms over in-process
//     goroutine meshes or TCP,
//   - the underlying computational geometry: safe areas Γ(Y), convex-hull
//     membership and Tverberg partitions.
//
// Quick start: see examples/quickstart, or:
//
//	cfg := bvc.Config{N: 5, F: 1, D: 2}
//	res, err := bvc.SimulateExact(cfg, inputs, nil, bvc.SimOptions{Seed: 1})
//	// res.Processes[i].Decision is in the convex hull of correct inputs.
//
// # Performance
//
// Every algorithm bottoms out in the same hot path: computing deterministic
// points of safe areas Γ(Y), one per candidate set per round. The shape of
// Y picks the rung (docs/ARCHITECTURE.md, "Method ladder"): a closed form
// for d = 1, the Radon point for f = 1, Sarkaria's lifted Tverberg search
// for f ≥ 2, and the lex-min member for sets already converged within
// tolerance. The paper's linear program over all C(|Y|, f) subset hulls is
// only the conclusive last resort, and no benchmark workload reaches it.
// That path runs on a dedicated Γ-point engine (internal/core.Engine),
// parallel (candidate-set solves are streamed by subset rank across up to
// a bound of workers; the caller is one of them, and the others start only
// at a walk's first memo miss) and memoized (by the paper's Observation 2,
// every correct process computes the identical point zij for the same
// candidate set, so identical solves — across the n simulated processes,
// and across rounds — collapse to one, keyed by the canonical bit-exact
// multiset key).
//
// The engine is a value: SimOptions.Engine runs a simulation on a
// GammaEngine built by NewGammaEngine (a worker bound — 0 = GOMAXPROCS,
// 1 = serial), and nil selects the shared default engine, which every live
// Service also uses. Engine choice is a pure performance knob: parallel
// runs reduce results in subset-rank order and the memo is exact, so every
// engine leaves results bit-identical. Each engine counts its own work
// (GammaEngine.Counters); EngineGammaCounters reads the default engine's.
package bvc

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/safearea"
)

// Vector is a point in R^d. Plain []float64 keeps the API friction-free;
// all functions validate dimensions and finiteness at the boundary.
type Vector = []float64

// Config is the common configuration of every algorithm.
type Config struct {
	// N is the number of processes; F the maximum number of Byzantine
	// processes; D the vector dimension.
	N, F, D int
	// Epsilon is the ε of ε-agreement (approximate variants). Correct
	// processes' decisions differ by at most ε in every coordinate.
	Epsilon float64
	// Lo and Hi are the a-priori per-coordinate input bounds ([ν, U] in
	// the paper), required by the approximate variants. Length D, or
	// length 1 meaning a uniform bound for every coordinate.
	Lo, Hi []float64
	// WitnessOptimization selects the Appendix-F construction of Zi
	// (|Zi| ≤ n, contraction weight γ = 1/n²) for the asynchronous
	// algorithm.
	WitnessOptimization bool
	// MaxRounds, when positive, overrides the analytic termination round
	// bound of the approximate variants (§3.2 asynchronous and both §4
	// restricted algorithms) with a fixed horizon. The analytic bound grows
	// like 1/γ, and γ decays combinatorially in n for the restricted
	// variants, so large-n runs use a γ-aware horizon and are judged by
	// per-round contraction plus validity instead of full ε-termination
	// (see internal/harness.GammaBudget and experiment E10).
	MaxRounds int
}

// Variant identifies one of the paper's algorithms.
type Variant int

// Algorithm variants.
const (
	// ExactSync is Exact BVC in a synchronous system (§2.2).
	ExactSync Variant = iota + 1
	// ApproxAsync is approximate BVC in an asynchronous system (§3.2).
	ApproxAsync
	// RestrictedSync is the restricted-round synchronous algorithm (§4).
	RestrictedSync
	// RestrictedAsync is the restricted-round asynchronous algorithm (§4).
	RestrictedAsync
)

// MinProcesses returns the paper's tight process-count bound for a variant:
// max(3f+1, (d+1)f+1), (d+2)f+1, (d+2)f+1 and (d+4)f+1 respectively.
func MinProcesses(v Variant, d, f int) int {
	return core.MinProcesses(coreVariant(v), d, f)
}

// Gamma returns the analytic per-round contraction weight γ of an
// approximate variant; the correct processes' per-coordinate range shrinks
// by at least the factor 1−γ every asynchronous round.
func Gamma(v Variant, n, f int, witnessOpt bool) float64 {
	return core.Gamma(coreVariant(v), n, f, witnessOpt)
}

// RoundBound returns the paper's termination round count
// 1 + ⌈log_{1/(1−γ)} (range/ε)⌉.
func RoundBound(gamma, valueRange, epsilon float64) int {
	return core.RoundBound(gamma, valueRange, epsilon)
}

func coreVariant(v Variant) core.Variant {
	switch v {
	case ExactSync:
		return core.VariantExactSync
	case ApproxAsync:
		return core.VariantApproxAsync
	case RestrictedSync:
		return core.VariantRestrictedSync
	case RestrictedAsync:
		return core.VariantRestrictedAsync
	default:
		return 0
	}
}

// params converts a Config to the internal parameter form.
func (c Config) params() (core.Params, error) {
	p := core.Params{
		N: c.N, F: c.F, D: c.D,
		Epsilon:   c.Epsilon,
		Method:    safearea.MethodAuto,
		MaxRounds: c.MaxRounds,
	}
	box, err := c.box()
	if err != nil {
		return core.Params{}, err
	}
	p.Bounds = box
	return p, nil
}

// box materializes the [Lo, Hi] input box; a nil Lo/Hi pair yields the
// degenerate box only exact variants accept.
func (c Config) box() (geometry.Box, error) {
	expand := func(b []float64) (geometry.Vector, error) {
		switch len(b) {
		case c.D:
			return geometry.Vector(b).Clone(), nil
		case 1:
			out := geometry.NewVector(c.D)
			for i := range out {
				out[i] = b[0]
			}
			return out, nil
		default:
			return nil, fmt.Errorf("bvc: bound length %d, want %d or 1", len(b), c.D)
		}
	}
	if c.Lo == nil && c.Hi == nil {
		return geometry.Box{Lo: geometry.NewVector(c.D), Hi: geometry.NewVector(c.D)}, nil
	}
	lo, err := expand(c.Lo)
	if err != nil {
		return geometry.Box{}, err
	}
	hi, err := expand(c.Hi)
	if err != nil {
		return geometry.Box{}, err
	}
	return geometry.Box{Lo: lo, Hi: hi}, nil
}

// asyncConfig converts a Config for the asynchronous algorithm.
func (c Config) asyncConfig() (core.AsyncConfig, error) {
	p, err := c.params()
	if err != nil {
		return core.AsyncConfig{}, err
	}
	return core.AsyncConfig{
		Params:     p,
		WitnessOpt: c.WitnessOptimization,
		MaxRounds:  c.MaxRounds,
	}, nil
}

// toGeometry converts a public vector, validating nothing (validation
// happens in the algorithm constructors).
func toGeometry(v Vector) geometry.Vector {
	return geometry.Vector(v).Clone()
}

// fromGeometry converts an internal vector to the public form.
func fromGeometry(v geometry.Vector) Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// ProcessResult is one process's view of a finished run.
type ProcessResult struct {
	ID        int
	Byzantine bool
	// Input is the process's input (correct processes only).
	Input Vector
	// Decision is the decided vector; nil for Byzantine processes.
	Decision Vector
	// Rounds is the number of algorithm rounds the process executed.
	Rounds int
	// History, when recorded, holds the state after every round starting
	// with the input (approximate variants only).
	History []Vector
}

// Result is a finished consensus run.
type Result struct {
	Variant   Variant
	Config    Config
	Processes []ProcessResult
	// Messages is the total number of point-to-point messages carried.
	Messages int64
	// VirtualTime is the simulated clock at completion (simulation only).
	VirtualTime time.Duration
}

// execution converts the result for verification.
func (r *Result) execution() *core.Execution {
	ex := &core.Execution{D: r.Config.D, F: r.Config.F}
	for _, p := range r.Processes {
		o := core.Outcome{ID: p.ID, Correct: !p.Byzantine}
		if !p.Byzantine {
			o.Input = geometry.Vector(p.Input)
			if p.Decision != nil {
				o.Decision = geometry.Vector(p.Decision)
			}
		}
		ex.Outcomes = append(ex.Outcomes, o)
	}
	return ex
}

// VerifyExact checks Agreement, Validity and Termination (Exact BVC
// definitions, paper §1) and returns the first violation.
func (r *Result) VerifyExact() error {
	return r.execution().VerifyExact(0)
}

// VerifyApprox checks ε-Agreement, Validity and Termination (approximate
// BVC definitions, paper §1).
func (r *Result) VerifyApprox() error {
	return r.execution().VerifyApprox(r.Config.Epsilon, 0)
}

// VerifyValidity checks only the validity condition: every correct decision
// lies in the convex hull of the correct inputs.
func (r *Result) VerifyValidity() error {
	return r.execution().VerifyValidity(0)
}

// Decisions returns the correct processes' decisions in process order.
func (r *Result) Decisions() []Vector {
	var out []Vector
	for _, p := range r.Processes {
		if !p.Byzantine && p.Decision != nil {
			out = append(out, p.Decision)
		}
	}
	return out
}
