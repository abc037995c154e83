// Command bvcbench regenerates the paper-reproduction experiment tables
// E1–E10 and figures F1/F2 (the README's experiment table summarizes what
// each demonstrates).
//
// Usage:
//
//	bvcbench                     # run everything
//	bvcbench -experiment e5      # one experiment
//	bvcbench -seed 7             # change the master seed
//	bvcbench -json               # benchmark mode: per-experiment JSON
//	                             # records (ns/op, allocs/op, B/op) for the
//	                             # BENCH_*.json perf trajectory
//	bvcbench -workers 1 -gammacache=false   # serial, uncached Γ engine
//	bvcbench -nodeworkers 1      # step simulated nodes serially (0 =
//	                             # GOMAXPROCS; results are bit-identical,
//	                             # only wall clock changes)
//
// BENCH workflow: BENCH_baseline.json at the repository root is the
// committed performance trajectory point; it is re-recorded as the
// per-record median of three `GOMAXPROCS=1 bvcbench -json` runs
// (docs/BENCH_FORMAT.md). CI regenerates the same records into
// a BENCH_pr.json artifact with one run and gates merges with
// cmd/benchdiff, which fails on >25% ns/op or allocs/op regression after
// normalizing by the "calibrate" record (a fixed CPU workload that absorbs
// hardware-speed differences between the baseline machine and the CI
// runner). The e10 scale sweep is additionally measured with serial node
// stepping ("e10/nodeworkers=1") so the trajectory records the cross-node
// parallelism headroom.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bvcbench:", err)
		os.Exit(1)
	}
}

// benchRecord is one -json output line (see docs/BENCH_FORMAT.md for the
// full schema). GoMaxProcs records the recording machine's parallelism:
// the calibration workload is single-threaded, so cmd/benchdiff can only
// normalize per-core speed and warns when the core counts of two
// trajectories differ (parallel experiments then shift by the core-count
// ratio, not by code changes).
type benchRecord struct {
	Benchmark   string  `json:"benchmark"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Pass        bool    `json:"pass"`
	Seconds     float64 `json:"seconds"`
	GoMaxProcs  int     `json:"gomaxprocs"`

	// Γ-engine reuse counters (per-op: measured deltas divided by the
	// iteration count) and the derived reuse rate; see
	// docs/BENCH_FORMAT.md. Zero-valued fields are omitted so records of
	// Γ-free targets (calibrate) stay unchanged.
	GammaSolves     int64   `json:"gamma_solves,omitempty"`
	GammaCacheHits  int64   `json:"gamma_cache_hits,omitempty"`
	GammaPrefixHits int64   `json:"gamma_prefix_hits,omitempty"`
	GammaRoundHits  int64   `json:"gamma_round_hits,omitempty"`
	GammaReuseRate  float64 `json:"gamma_reuse_rate,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("bvcbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment to run: all, e1…e10, f1, f2")
	seed := fs.Int64("seed", 1, "master random seed")
	trials := fs.Int("trials", 20, "trial count for statistical experiments (E3)")
	jsonOut := fs.Bool("json", false, "benchmark each experiment and emit one JSON record per line (ns/op, allocs/op) instead of rendering tables")
	workers := fs.Int("workers", 0, "Γ-point engine worker bound: 0 = GOMAXPROCS, 1 = serial")
	gammaCache := fs.Bool("gammacache", true, "memoize Γ-points across processes and rounds")
	nodeWorkers := fs.Int("nodeworkers", 0, "simulated-node stepping worker bound: 0 = GOMAXPROCS, 1 = serial")
	if err := fs.Parse(args); err != nil {
		return err
	}
	harness.SetEngineOptions(*workers, !*gammaCache, *nodeWorkers)

	runners := harness.Runners(*seed, *trials)

	// ExperimentOrder and Runners must describe the same experiment set;
	// catching a drift here beats silently dropping an experiment from the
	// -json trajectory (or calling a nil runner).
	if len(harness.ExperimentOrder) != len(runners) {
		return fmt.Errorf("internal: ExperimentOrder lists %d experiments, Runners %d", len(harness.ExperimentOrder), len(runners))
	}
	for _, n := range harness.ExperimentOrder {
		if _, ok := runners[n]; !ok {
			return fmt.Errorf("internal: ExperimentOrder entry %q has no runner", n)
		}
	}

	name := strings.ToLower(*experiment)
	if *jsonOut {
		names := harness.ExperimentOrder
		if name != "all" {
			if _, ok := runners[name]; !ok {
				return fmt.Errorf("unknown experiment %q (want all, e1…e10, f1, f2)", name)
			}
			names = []string{name}
		}
		// The calibration record leads every trajectory: a fixed CPU
		// workload whose ratio between two BENCH files estimates the
		// hardware-speed delta, letting cmd/benchdiff compare files
		// recorded on different machines.
		targets := []benchTarget{{name: "calibrate", run: harness.Calibrate}}
		for _, n := range names {
			targets = append(targets, benchTarget{name: n, run: runners[n]})
			if n == "e10" {
				// The scale sweep is also measured with serial node
				// stepping, so the trajectory records the speedup of
				// SimOptions.NodeWorkers on the n = 13 grids — and its
				// restricted/async n = 15 rows are measured individually,
				// tracking the incremental Γ engine's hot path per row.
				targets = append(targets, benchTarget{
					name: "e10/nodeworkers=1",
					run: func() (*harness.Table, error) {
						return harness.RunSerialNodes(runners["e10"])
					},
				})
				for _, cell := range harness.E10RowCells {
					targets = append(targets, benchTarget{
						name: harness.E10RowName(cell),
						run:  harness.E10RowRunner(cell),
					})
				}
			}
		}
		return benchJSON(os.Stdout, targets)
	}

	if name == "all" {
		tables, err := harness.All(*seed)
		if err != nil {
			return err
		}
		allPass := true
		for _, tbl := range tables {
			if err := tbl.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			if !tbl.Pass {
				allPass = false
			}
		}
		if !allPass {
			return fmt.Errorf("one or more experiments failed")
		}
		return nil
	}

	r, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want all, e1…e10, f1, f2)", name)
	}
	tbl, err := r()
	if err != nil {
		return err
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if !tbl.Pass {
		return fmt.Errorf("experiment %s failed", strings.ToUpper(name))
	}
	return nil
}

// benchTarget is one measured entry of a BENCH_*.json trajectory.
type benchTarget struct {
	name string
	run  func() (*harness.Table, error)
}

// benchJSON measures each target with harness.MeasureTable — the
// cold-cache benchmark protocol — and writes one JSON record per line, so
// successive commits can archive comparable BENCH_*.json trajectory
// points.
func benchJSON(w *os.File, targets []benchTarget) error {
	enc := json.NewEncoder(w)
	for _, target := range targets {
		tbl, br, counters, rerr := harness.MeasureTable(target.run)
		if rerr != nil {
			return fmt.Errorf("%s: %w", target.name, rerr)
		}
		rec := benchRecord{
			Benchmark:   target.name,
			Iterations:  br.N,
			NsPerOp:     br.NsPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Pass:        tbl != nil && tbl.Pass,
			Seconds:     br.T.Seconds(),
			GoMaxProcs:  runtime.GOMAXPROCS(0),

			// MeasureTable's counters are already per-op.
			GammaSolves:     int64(counters.Solves),
			GammaCacheHits:  int64(counters.CacheHits),
			GammaPrefixHits: int64(counters.PrefixHits),
			GammaRoundHits:  int64(counters.RoundHits),
			GammaReuseRate:  counters.ReuseRate(),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		if !rec.Pass {
			return fmt.Errorf("experiment %s failed", strings.ToUpper(target.name))
		}
	}
	return nil
}
