package core

import "sync/atomic"

// GammaCounters is a snapshot of one Engine's Γ-point reuse counters,
// accumulated over every computation that engine has served since it was
// built. They quantify how much of the Γ workload the incremental layers
// absorbed:
//
//   - Solves: Γ-points computed from scratch (memo misses);
//   - CacheHits: full-multiset memo hits (Observation 2 — identical
//     candidate sets across processes and rounds);
//   - PrefixHits: sub-family reuse — candidate sets that shared the
//     method-dependent prefix (first d+2 members for the Radon path, first
//     (d+1)f+1 for the Tverberg lift) of an already-solved sibling, plus
//     Radon-family delta reuse (restricted-async f = 1: subset points
//     carried over between B sets differing in a single member);
//   - RoundHits: whole-round hits — AverageGamma calls whose entire
//     canonical (origin-sorted) tuple set was already reduced: identical
//     inboxes across processes, including restricted-async B sets that
//     coincide as sets despite different arrival orders.
//
// The harness's TestE10RowBudgets pins the per-run deltas and the derived
// reuse rate of the E10 rows.
type GammaCounters struct {
	Solves     uint64
	CacheHits  uint64
	PrefixHits uint64
	RoundHits  uint64
}

// ReuseRate returns the fraction of Γ-point requests served without a
// from-scratch solve: (CacheHits+PrefixHits) / (those + Solves). RoundHits
// are excluded — a round hit suppresses its per-set requests entirely, so
// counting it here would double-bill.
func (c GammaCounters) ReuseRate() float64 {
	reused := c.CacheHits + c.PrefixHits
	if reused+c.Solves == 0 {
		return 0
	}
	return float64(reused) / float64(reused+c.Solves)
}

// Sub reports the counter deltas accumulated since the earlier snapshot.
func (c GammaCounters) Sub(earlier GammaCounters) GammaCounters {
	return GammaCounters{
		Solves:     c.Solves - earlier.Solves,
		CacheHits:  c.CacheHits - earlier.CacheHits,
		PrefixHits: c.PrefixHits - earlier.PrefixHits,
		RoundHits:  c.RoundHits - earlier.RoundHits,
	}
}

// engineCounters are an Engine's live Γ-reuse counters. A worker adds its
// gammaTally once, when it finishes; round hits and Radon-family counts are
// added where they occur. Counters snapshots them.
type engineCounters struct {
	solves, cacheHits, prefixHits, roundHits atomic.Uint64
}

// Counters returns a snapshot of the engine's Γ-reuse counters.
func (e *Engine) Counters() GammaCounters {
	c := &e.counters
	return GammaCounters{
		Solves:     c.solves.Load(),
		CacheHits:  c.cacheHits.Load(),
		PrefixHits: c.prefixHits.Load(),
		RoundHits:  c.roundHits.Load(),
	}
}
