package harness

// ExperimentOrder fixes the canonical order of the experiment suite: All
// renders the tables in it.
var ExperimentOrder = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "f1", "f2"}

// Runners returns the experiment registry: one runner per ExperimentOrder
// entry, closed over the master seed and the trial count of the
// statistical experiments (E3).
func Runners(seed int64, trials int) map[string]func() (*Table, error) {
	return map[string]func() (*Table, error){
		"e1":  func() (*Table, error) { return E1SyncNecessity(seed) },
		"e2":  func() (*Table, error) { return E2ExactSufficiency(seed) },
		"e3":  func() (*Table, error) { return E3TverbergLemma(seed, trials) },
		"e4":  E4AsyncNecessity,
		"e5":  func() (*Table, error) { return E5AsyncConvergence(seed) },
		"e6":  func() (*Table, error) { return E6RestrictedSync(seed) },
		"e7":  func() (*Table, error) { return E7RestrictedAsync(seed) },
		"e8":  func() (*Table, error) { return E8CoordinateWise(seed) },
		"e9":  func() (*Table, error) { return E9WitnessAblation(seed) },
		"e10": func() (*Table, error) { return E10ScaleSweep(seed) },
		"f1":  F1Heptagon,
		"f2":  func() (*Table, error) { return F2ConvergenceSeries(seed) },
	}
}
