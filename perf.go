package bvc

import "repro/internal/core"

// GammaCounters is a snapshot of the Γ-point engine's process-wide reuse
// counters, quantifying how much of the Γ workload the incremental layers
// absorbed instead of solving from scratch. See the field docs; snapshot
// before and after a workload and Sub the two to measure it.
type GammaCounters struct {
	// Solves counts Γ-points computed from scratch (memo misses, or the
	// memoization disabled).
	Solves uint64
	// CacheHits counts full-multiset memo hits: identical candidate sets
	// recurring across processes and rounds (the paper's Observation 2).
	CacheHits uint64
	// PrefixHits counts sub-family memo hits: candidate sets served by an
	// already-solved sibling sharing the method-dependent prefix (first
	// d+2 members on the Radon path, first (d+1)f+1 on the Tverberg-lift
	// path).
	PrefixHits uint64
	// RoundHits counts whole-round reductions served from the round-level
	// memo: AverageGamma calls whose entire ordered tuple sequence was
	// already reduced (identical inboxes across processes).
	RoundHits uint64
}

// ReuseRate returns the fraction of per-candidate-set Γ-point requests
// served without a from-scratch solve. RoundHits are excluded: a round hit
// suppresses its per-set requests entirely.
func (c GammaCounters) ReuseRate() float64 {
	return core.GammaCounters(c).ReuseRate()
}

// Sub returns the counter deltas accumulated since the earlier snapshot.
func (c GammaCounters) Sub(earlier GammaCounters) GammaCounters {
	return GammaCounters(core.GammaCounters(c).Sub(core.GammaCounters(earlier)))
}

// EngineGammaCounters returns the current process-wide Γ-reuse counters,
// accumulated across the default engine and every explicitly configured one.
func EngineGammaCounters() GammaCounters {
	return GammaCounters(core.CountersSnapshot())
}
