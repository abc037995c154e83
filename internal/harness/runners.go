package harness

import "repro"

// ExperimentOrder fixes the canonical order of the experiment suite: All
// renders the tables in it.
var ExperimentOrder = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "f1", "f2"}

// Runners returns the experiment registry: one runner per ExperimentOrder
// entry, closed over the master seed, the trial count of the statistical
// experiments (E3) and the simulation template opts, whose Engine every
// experiment that runs bvc simulations copies while setting its own Seed
// and Delay. E9 drives the core nodes directly
// and stays on the default engine. Every engine choice renders identical
// tables.
func Runners(seed int64, trials int, opts bvc.SimOptions) map[string]func() (*Table, error) {
	return map[string]func() (*Table, error){
		"e1":  func() (*Table, error) { return E1SyncNecessity(seed) },
		"e2":  func() (*Table, error) { return E2ExactSufficiency(seed, opts) },
		"e3":  func() (*Table, error) { return E3TverbergLemma(seed, trials) },
		"e4":  E4AsyncNecessity,
		"e5":  func() (*Table, error) { return E5AsyncConvergence(seed, opts) },
		"e6":  func() (*Table, error) { return E6RestrictedSync(seed, opts) },
		"e7":  func() (*Table, error) { return E7RestrictedAsync(seed, opts) },
		"e8":  func() (*Table, error) { return E8CoordinateWise(seed, opts) },
		"e9":  func() (*Table, error) { return E9WitnessAblation(seed) },
		"e10": func() (*Table, error) { return E10ScaleSweep(seed, opts) },
		"f1":  F1Heptagon,
		"f2":  func() (*Table, error) { return F2ConvergenceSeries(seed, opts) },
	}
}

// runOpts is an experiment's SimOptions: the template's engine choice with
// the experiment's own seed and delay.
func runOpts(opts bvc.SimOptions, seed int64, delay bvc.DelaySpec) bvc.SimOptions {
	opts.Seed, opts.Delay = seed, delay
	return opts
}
