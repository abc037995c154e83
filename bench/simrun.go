package main

import (
	"context"
	"fmt"
	"time"

	bvc "repro"
	"repro/internal/harness"
)

// simLayer is what a sim run tells about the core and sim layers: exact
// per-run counts over the workload's fixed op prefix.
type simLayer struct {
	solvesPerRun    float64
	roundHitsPerRun float64
	messagesPerRun  float64
	reuseRate       float64
}

// execute runs the workload's cell once, cold: Γ caches reset, so every
// op pays for its own solves and reuse is what one execution finds within
// itself.
func execute(w *workload, seed int64) (*harness.SweepOutcome, bvc.GammaCounters, error) {
	cell := w.cell
	cell.Seed = seed
	bvc.ResetEngineCaches()
	before := bvc.EngineGammaCounters()
	out, err := harness.RunSweepCell(cell)
	return out, bvc.EngineGammaCounters().Sub(before), err
}

// runSim measures one sim workload: verified executions back to back, each
// under its own derived seed, until the time is up and the exact-count
// prefix is complete. A non-nil rec gets one sim.run span per execution
// with the Γ-counter deltas attached.
func runSim(ctx context.Context, w *workload, seed int64, seconds float64, rec *recorder) (*window, *simLayer, error) {
	win := &window{}
	lay := &simLayer{}

	// Set-up is what precedes the first measured op: derive the seed,
	// reset the engines, and one unmeasured execution that pays the
	// process's lazy initialisation. Negative indices keep these seeds
	// apart from the measured ones.
	for rep := range simSetupReps {
		t0 := time.Now()
		if _, _, err := execute(w, simSeed(seed, -1-rep)); err != nil {
			return nil, nil, fmt.Errorf("set-up execution: %w", err)
		}
		win.setupS = append(win.setupS, time.Since(t0).Seconds())
	}

	var exact bvc.GammaCounters
	var exactMessages int64
	var heaps []float64
	budget := time.Duration(seconds * float64(time.Second))
	cpu0 := cpuTime()
	win.start = time.Now()
	for i := 0; i < w.exactOps || time.Since(win.start) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		s := simSeed(seed, i)
		t0 := time.Now()
		out, gamma, err := execute(w, s)
		t1 := time.Now()
		win.ops++
		win.opMs = append(win.opMs, ms(t1.Sub(t0)))
		win.doneAt = append(win.doneAt, t1)
		// What one execution leaves in the caches varies with its seed;
		// the median over every op is what the workload holds.
		heaps = append(heaps, float64(liveHeapAfterGC()))
		if rec != nil {
			rec.add("sim.run", t0, t1, uint64(s), map[string]float64{
				"gamma_solves": float64(gamma.Solves), "gamma_cache_hits": float64(gamma.CacheHits),
				"gamma_prefix_hits": float64(gamma.PrefixHits), "gamma_round_hits": float64(gamma.RoundHits),
			})
		}
		switch {
		case err != nil:
			win.fail(fmt.Errorf("execution %d (seed %d): %w", i, s, err))
		case !out.Verified:
			win.fail(fmt.Errorf("execution %d (seed %d): not verified (%s)", i, s, out.VerifyMode))
		}
		if i < w.exactOps && out != nil {
			exact.Solves += gamma.Solves
			exact.CacheHits += gamma.CacheHits
			exact.PrefixHits += gamma.PrefixHits
			exact.RoundHits += gamma.RoundHits
			exactMessages += out.Messages
		}
	}
	win.end = time.Now()
	win.checked = win.ops
	win.cpu = cpuTime() - cpu0
	win.heap, win.held = uint64(median(heaps)), 1

	k := float64(w.exactOps)
	lay.solvesPerRun = float64(exact.Solves) / k
	lay.roundHitsPerRun = float64(exact.RoundHits) / k
	lay.messagesPerRun = float64(exactMessages) / k
	lay.reuseRate = exact.ReuseRate()
	return win, lay, nil
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstEr == nil {
		w.firstEr = err
	}
}
