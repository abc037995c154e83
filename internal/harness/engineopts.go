package harness

import "repro"

// engineOptions is the harness-wide simulation-engine configuration folded
// into every experiment's SimOptions. The zero value selects the library
// defaults (GOMAXPROCS for both worker pools, memoization on); tests change
// it through SetEngineOptions. Every configuration produces bit-identical
// experiment tables — the engine knobs only move work and memory around.
var engineOptions struct {
	workers      int
	disableCache bool
	nodeWorkers  int
}

// SetEngineOptions configures the simulation engines used by all
// experiments: workers bounds concurrent Γ-point solves within one node's
// Zi fan-out (0 = GOMAXPROCS, 1 = serial), disableCache turns off
// cross-process Γ-point memoization, and nodeWorkers bounds how many
// simulated nodes step concurrently per round (0 = GOMAXPROCS, 1 = serial).
func SetEngineOptions(workers int, disableCache bool, nodeWorkers int) {
	engineOptions.workers = workers
	engineOptions.disableCache = disableCache
	engineOptions.nodeWorkers = nodeWorkers
}

// withEngine folds the harness engine configuration into o.
func withEngine(o bvc.SimOptions) bvc.SimOptions {
	o.Workers = engineOptions.workers
	o.DisableGammaCache = engineOptions.disableCache
	o.NodeWorkers = engineOptions.nodeWorkers
	return o
}
