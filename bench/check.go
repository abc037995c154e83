package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
)

// suiteValues holds one pass over every workload: workload → metric →
// value, end-to-end and per-layer together.
type suiteValues map[string]map[string]float64

// runSuite runs every workload untraced then traced. With check set it
// does so twice on the same seed and compares the passes.
func runSuite(ctx context.Context, out io.Writer, seed int64, seconds float64, check bool) error {
	first, err := suitePass(ctx, out, seed, seconds)
	if err != nil || !check {
		return err
	}
	second, err := suitePass(ctx, out, seed, seconds)
	if err != nil {
		return err
	}
	return compare(out, first, second)
}

func suitePass(ctx context.Context, out io.Writer, seed int64, seconds float64) (suiteValues, error) {
	vals := suiteValues{}
	var failures []string
	for i := range workloads {
		w := &workloads[i]
		vals[w.name] = map[string]float64{}
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(ctx, w, seed, seconds, traced, "")
			if err != nil {
				return nil, err
			}
			rep.print(out)
			for k, v := range rep.values {
				vals[w.name][k] = v
			}
			if err := rep.verdict(); err != nil {
				failures = append(failures, err.Error())
			}
		}
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return vals, nil
}

// exactOnSim are the counts that must repeat bit for bit on the sim
// workloads: they are taken over a fixed op prefix under fixed seeds, and
// the Γ engine's results do not depend on worker scheduling.
var exactOnSim = []string{"core.gamma_solves_per_run", "core.round_hits_per_run", "sim.messages_per_run"}

// withinFivePercent are live counters that depend on real scheduling
// (batching, retransmission) and are compared loosely.
var withinFivePercent = []string{"service.frames_per_instance", "service.bytes_per_instance"}

// compare prints both passes' values side by side and fails if an
// end-to-end pair differs by more than its bound, an exact count differs
// at all, or a live counter differs by more than 5%.
func compare(out io.Writer, a, b suiteValues) error {
	var bad []string
	row := func(w, name string, limit float64) {
		x, y := a[w][name], b[w][name]
		diff := 0.0
		if x != y {
			diff = math.Abs(y-x) / math.Abs(x)
		}
		verdict := "ok"
		if diff > limit {
			verdict = "DISAGREE"
			bad = append(bad, w+"/"+name)
		}
		fmt.Fprintf(out, "check %-22s %-30s %14.6g %14.6g  diff %7.3f%%  limit %5.1f%%  %s\n",
			w, name, x, y, 100*diff, 100*limit, verdict)
	}
	for i := range workloads {
		w := &workloads[i]
		for _, m := range endToEnd {
			row(w.name, m.name, m.bound)
		}
		if w.live {
			for _, name := range withinFivePercent {
				row(w.name, name, 0.05)
			}
		} else {
			for _, name := range exactOnSim {
				row(w.name, name, 0)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("check: the two passes disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}
