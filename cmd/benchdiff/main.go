// Command benchdiff compares two bvcbench -json trajectory files and fails
// when any shared benchmark regressed beyond the threshold — the CI gate
// that keeps the BENCH_*.json performance trajectory monotone.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline.json -candidate BENCH_pr.json
//	benchdiff ... -threshold 0.25       # fail on >25% ns/op regression
//	benchdiff ... -calibration ""       # disable hardware normalization
//	benchdiff reuse -require e10 BENCH_pr.json
//
// The files are JSON-lines records as emitted by `bvcbench -json`; the
// record schema and the calibration semantics are documented in
// docs/BENCH_FORMAT.md. Records named by -calibration (default
// "calibrate") measure a fixed CPU workload; when both files carry one,
// every per-benchmark ratio is divided by the calibration ratio, so a
// baseline recorded on a fast laptop compares fairly against a candidate
// recorded on a slow CI runner and vice versa.
//
// Exit status is non-zero when any benchmark regresses beyond the
// threshold, a baseline benchmark is missing from the candidate or lost
// its allocation count, or any candidate record reports pass=false.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "reuse":
		err = runReuse(args[1:], os.Stdout)
	default:
		err = run(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// record mirrors cmd/bvcbench's benchRecord (kept separate so the two
// commands stay independently buildable).
type record struct {
	Benchmark   string  `json:"benchmark"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Pass        bool    `json:"pass"`
	Seconds     float64 `json:"seconds"`
	GoMaxProcs  int     `json:"gomaxprocs"`

	// Γ-engine reuse counters (docs/BENCH_FORMAT.md); consumed by the
	// `benchdiff reuse` report and gate.
	GammaSolves     int64   `json:"gamma_solves"`
	GammaCacheHits  int64   `json:"gamma_cache_hits"`
	GammaPrefixHits int64   `json:"gamma_prefix_hits"`
	GammaRoundHits  int64   `json:"gamma_round_hits"`
	GammaReuseRate  float64 `json:"gamma_reuse_rate"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: benchdiff [flags]                         compare a candidate trajectory against a baseline")
		fmt.Fprintln(fs.Output(), "       benchdiff reuse [flags] trajectory.json  summarize and gate Γ reuse")
		fmt.Fprintln(fs.Output(), "record schema and calibration semantics: docs/BENCH_FORMAT.md")
		fs.PrintDefaults()
	}
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "committed trajectory file")
	candidatePath := fs.String("candidate", "BENCH_pr.json", "freshly measured trajectory file")
	threshold := fs.Float64("threshold", 0.25, "maximum tolerated fractional ns/op regression")
	calibration := fs.String("calibration", "calibrate", "benchmark name used to normalize hardware speed (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand or argument %q (compare mode takes flags only)", fs.Arg(0))
	}
	if *threshold <= 0 {
		return fmt.Errorf("invalid threshold %g", *threshold)
	}
	base, err := readRecords(*baselinePath)
	if err != nil {
		return err
	}
	cand, err := readRecords(*candidatePath)
	if err != nil {
		return err
	}
	if len(base) == 0 {
		return fmt.Errorf("%s holds no records", *baselinePath)
	}

	// Hardware normalization from the calibration pair. The calibration
	// workload is single-threaded, so the scale captures per-core speed
	// only; a core-count mismatch between the two machines shifts the
	// parallel experiments independently of code changes — surface it.
	// Allocation counts get their own scale from the calibration record's
	// allocs/op: allocation behavior is essentially hardware-independent,
	// so the scale is ~1 unless the runtime or measurement protocol
	// changed between the recordings — which is exactly the delta it
	// absorbs. The ratio is only meaningful when the calibration's own
	// count is large enough that ±1-alloc jitter cannot move it by the
	// gate threshold (the fixed kernel allocates a handful per op, where a
	// single-alloc wobble is a 25–33% ratio swing); below the floor the
	// scale stays 1.
	const minCalibAllocs = 64 // ±1 alloc shifts the ratio < 1.6%, ≪ the 25% gate
	scale := 1.0
	allocScale := 1.0
	if *calibration != "" {
		b, bok := base[*calibration]
		c, cok := cand[*calibration]
		if bok && cok && b.NsPerOp > 0 {
			scale = float64(c.NsPerOp) / float64(b.NsPerOp)
			fmt.Fprintf(w, "calibration: %s %d → %d ns/op (hardware scale ×%.3f)\n",
				*calibration, b.NsPerOp, c.NsPerOp, scale)
			if b.AllocsPerOp >= minCalibAllocs && c.AllocsPerOp >= minCalibAllocs {
				allocScale = float64(c.AllocsPerOp) / float64(b.AllocsPerOp)
			}
			if b.GoMaxProcs > 0 && c.GoMaxProcs > 0 && b.GoMaxProcs != c.GoMaxProcs {
				fmt.Fprintf(w, "warning: GOMAXPROCS %d (baseline) vs %d (candidate); parallel benchmarks shift by the core-count ratio on top of any code change\n",
					b.GoMaxProcs, c.GoMaxProcs)
			}
		} else {
			fmt.Fprintf(w, "calibration: %q missing on one side; comparing raw ns/op\n", *calibration)
		}
	}

	names := make([]string, 0, len(base))
	for name := range base {
		if name != *calibration {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var failures []string
	fmt.Fprintf(w, "%-24s %14s %14s %9s %11s\n", "benchmark", "baseline ns/op", "candidate ns/op", "delta", "allocs Δ")
	for _, name := range names {
		b := base[name]
		c, ok := cand[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline, missing from candidate (regenerate the baseline if it was removed on purpose)", name))
			fmt.Fprintf(w, "%-24s %14d %14s %9s %11s\n", name, b.NsPerOp, "-", "MISSING", "-")
			continue
		}
		// Allocation gate: same threshold, calibration-normalized. A
		// candidate that reports no count for a row the baseline counts has
		// lost its instrumentation, and would otherwise pass unchecked.
		allocVerdict := "-"
		switch {
		case b.AllocsPerOp <= 0:
		case c.AllocsPerOp <= 0:
			allocVerdict = "MISSING"
			failures = append(failures, fmt.Sprintf("%s: candidate reports no allocs/op (baseline %d)", name, b.AllocsPerOp))
		default:
			allocDelta := float64(c.AllocsPerOp)/(float64(b.AllocsPerOp)*allocScale) - 1
			allocVerdict = fmt.Sprintf("%+.1f%%", allocDelta*100)
			if allocDelta > *threshold {
				allocVerdict += "!"
				failures = append(failures, fmt.Sprintf("%s: allocs/op %.1f%% above baseline (threshold %.0f%%)",
					name, allocDelta*100, *threshold*100))
			}
		}
		if b.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-24s %14d %14d %9s %11s\n", name, b.NsPerOp, c.NsPerOp, "SKIP", allocVerdict)
			continue
		}
		delta := float64(c.NsPerOp)/(float64(b.NsPerOp)*scale) - 1
		verdict := fmt.Sprintf("%+.1f%%", delta*100)
		if delta > *threshold {
			verdict += " REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.1f%% slower than baseline (threshold %.0f%%)",
				name, delta*100, *threshold*100))
		}
		fmt.Fprintf(w, "%-24s %14d %14d %9s %11s\n", name, b.NsPerOp, c.NsPerOp, verdict, allocVerdict)
	}
	candNames := make([]string, 0, len(cand))
	for name := range cand {
		candNames = append(candNames, name)
	}
	sort.Strings(candNames)
	for _, name := range candNames {
		c := cand[name]
		if !c.Pass {
			failures = append(failures, fmt.Sprintf("%s: candidate record reports pass=false", name))
		}
		if _, ok := base[name]; !ok && name != *calibration {
			fmt.Fprintf(w, "%-24s %14s %14d %9s %11s\n", name, "-", c.NsPerOp, "NEW", "-")
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failure(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "no regressions beyond %.0f%%\n", *threshold*100)
	return nil
}

// readRecords parses a JSON-lines trajectory file into a by-name map; a
// repeated name keeps the last record, matching "latest measurement wins".
func readRecords(path string) (map[string]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Benchmark == "" {
			return nil, fmt.Errorf("%s:%d: record without benchmark name", path, line)
		}
		out[rec.Benchmark] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
