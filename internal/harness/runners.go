package harness

import "math"

// ExperimentOrder fixes the canonical order of the experiment suite: All
// renders the tables in it and cmd/bvcbench -json emits its records in it.
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

// calibrateSink keeps the calibration kernel's result observable so the
// compiler cannot elide the work.
var calibrateSink float64

// Calibrate runs a fixed, deterministic CPU workload that is deliberately
// INDEPENDENT of every product kernel: it must measure only machine speed.
// Building it from the suite's own hot paths would be self-defeating — a
// regression in those kernels would slow the calibration record equally
// and cmd/benchdiff's normalization would cancel the very signal the gate
// exists to catch. The mix (floating-point arithmetic plus a pseudo-random
// walk over an L1/L2-sized buffer) approximates the suite's compute/memory
// balance without sharing any of its code.
//
// cmd/bvcbench -json leads every trajectory with a benchmark of this
// kernel (the "calibrate" record); cmd/benchdiff uses the ratio between
// two such records to normalize away hardware-speed differences (see
// docs/BENCH_FORMAT.md).
func Calibrate() (*Table, error) {
	x, s := 1.1, 0.0
	for i := 0; i < 4_000_000; i++ {
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x--
		}
		s += math.Sqrt(x)
	}
	buf := make([]float64, 1<<15)
	for i := range buf {
		buf[i] = float64(i%97) * 0.5
	}
	idx := 1
	for iter := 0; iter < 150; iter++ {
		for j := range buf {
			idx = (idx*1103515245 + 12345) & (len(buf) - 1)
			buf[j] = buf[idx]*0.9999 + float64(j&7)
		}
	}
	calibrateSink = s + buf[0]
	return &Table{ID: "calibrate", Pass: true}, nil
}
