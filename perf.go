package bvc

import "repro/internal/core"

// GammaCounters is a snapshot of one Γ-point engine's reuse counters,
// quantifying how much of that engine's Γ workload the incremental layers
// absorbed instead of solving from scratch: Solves (computed from scratch),
// CacheHits (full-multiset memo hits — the paper's Observation 2),
// PrefixHits (sub-family memo hits) and RoundHits (whole-round reductions).
// Snapshot before and after a workload and Sub the two to measure it;
// ReuseRate derives the share of per-candidate-set requests served without
// a solve.
type GammaCounters = core.GammaCounters

// GammaEngine is a Γ-point engine: the worker pool that fans the
// per-candidate-set safe-point solves across CPUs, the memo that collapses
// identical solves to one, and the counters of the work it did. Hand one to
// SimOptions.Engine to run simulations on it; a nil engine is the shared
// default. An engine is safe for concurrent use, and every configuration
// produces bit-identical results.
type GammaEngine struct {
	e *core.Engine
}

// NewGammaEngine returns an engine whose Γ-point fan-out runs on at most
// workers goroutines (≤ 0 selects GOMAXPROCS, 1 is serial). Its memo and
// counters live as long as the engine.
func NewGammaEngine(workers int) *GammaEngine {
	return &GammaEngine{e: core.NewEngine(workers)}
}

// Counters returns a snapshot of the engine's Γ-reuse counters.
func (g *GammaEngine) Counters() GammaCounters {
	return g.e.Counters()
}

// engine returns the engine to put in core.Params: nil, the shared default,
// for a nil g.
func (g *GammaEngine) engine() *core.Engine {
	if g == nil {
		return nil
	}
	return g.e
}

// EngineGammaCounters returns the Γ-reuse counters of the shared default
// engine: every simulation with a nil SimOptions.Engine and every live
// Service run on it.
func EngineGammaCounters() GammaCounters {
	return core.DefaultEngine().Counters()
}
