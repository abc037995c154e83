// Command bvcperf is the repository's benchmark: five workloads over the
// live consensus service and the simulator, each reporting the end-to-end
// metrics a user of the system sees (untraced) or the per-layer metrics
// that say where a change landed (traced). README.md in this directory
// documents every metric and workload; BENCHMARK.json at the repository
// root declares them to the driver.
//
// Usage:
//
//	bvcperf -workload live-open-n5 -seed 1 -seconds 15 -trace 0
//	bvcperf -workload sim-rasync-f2 -seed 1 -seconds 15 -trace 1 -trace-out spans.json
//	bvcperf -seconds 15            # every workload, untraced then traced
//	bvcperf -seconds 15 -check     # the suite twice; non-zero if the two disagree
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics. The exit status is non-zero when any operation
// failed its correctness check, when a check pair disagreed, on SIGINT or
// SIGTERM, and when the watchdog fired.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// Exit codes beyond 1 (a failed run) name the abnormal endings.
const (
	exitFailed   = 1
	exitUsage    = 2
	exitWatchdog = 3
	exitSignal   = 4
)

// runBudget is the wall time one workload run may take: measured time plus
// warm-up, set-up repetitions, verification, replay and kernels. Past it
// the run's context expires and the workload unwinds; ten seconds later
// the watchdog kills the process. The driver's own limit is 180 s.
func runBudget(seconds float64) time.Duration {
	return time.Duration((2*seconds + 45) * float64(time.Second))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bvcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input, sim seed and chaos seed")
	seconds := fs.Float64("seconds", 15, "measured time per workload run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
	check := fs.Bool("check", false, "run the suite twice and fail if the two disagree beyond the bounds")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bvcperf: usage: bvcperf [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file] [-check]")
		return exitUsage
	}
	var w *workload
	if *name != "" {
		if w = findWorkload(*name); w == nil {
			fmt.Fprintf(stderr, "bvcperf: unknown workload %q\n", *name)
			return exitUsage
		}
	}

	// A signal cancels the context; the workload in flight stops issuing,
	// closes its mesh and returns. The watchdog is the backstop for a run
	// that overshoots its budget or a shutdown that hangs: it exits the
	// process, which takes every goroutine and socket with it. The
	// benchmark starts no other process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	runs := 1
	if w == nil {
		runs = 2 * len(workloads)
		if *check {
			runs *= 2
		}
	}
	watchdog := time.AfterFunc(time.Duration(runs)*runBudget(*seconds)+10*time.Second, func() {
		fmt.Fprintln(stderr, "bvcperf: watchdog: run exceeded its time budget")
		os.Exit(exitWatchdog)
	})
	defer watchdog.Stop()
	returned := make(chan struct{})
	defer close(returned)
	go func() {
		select {
		case <-returned:
			return
		case <-ctx.Done():
		}
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			fmt.Fprintln(stderr, "bvcperf: watchdog: shutdown did not finish within 5 s of the signal")
			os.Exit(exitSignal)
		}
	}()

	fmt.Fprintf(stdout, "bvcperf seed=%d seconds=%g gomaxprocs=%d nproc=%d %s commit=%s\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)

	var err error
	switch {
	case w != nil:
		var rep *report
		if rep, err = runWorkload(ctx, w, *seed, *seconds, *trace == 1, *traceOut); err == nil {
			rep.print(stdout)
			err = rep.verdict()
		}
	default:
		err = runSuite(ctx, stdout, *seed, *seconds, *check)
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, "bvcperf: interrupted")
		return exitSignal
	default:
		fmt.Fprintln(stderr, "bvcperf:", err)
		return exitFailed
	}
}

// commit labels the report with the revision the binary was built from;
// run.sh sets it at link time.
var commit = "unknown"

// report is one workload run's outcome: the driver-facing verdict and the
// metrics of the mode it ran in.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	firstErr  error
	values    map[string]float64
}

func (r *report) metrics() []metric {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit, then the JSON line the
// driver reads.
func (r *report) print(w io.Writer) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics() {
		fmt.Fprintf(w, "%-22s %-34s %14.6g %s\n", r.workload, m.name, r.values[m.name], m.unit)
		out.Metrics[m.name] = val{r.values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

func (r *report) verdict() error {
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed (first: %v)", r.workload, r.failed, r.attempted, r.firstErr)
	}
	return nil
}

// runWorkload runs one workload once. Untraced, it measures the end-to-end
// metrics and nothing else runs. Traced, the same run also samples the
// service's queues, and the replay and the layer kernels follow it.
func runWorkload(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, traceOut string) (*report, error) {
	ctx, cancel := context.WithTimeout(ctx, runBudget(seconds))
	defer cancel()
	var (
		win *window
		ll  *liveLayer
		sl  *simLayer
		rec *recorder // nil untraced: nothing is recorded
		err error
	)
	if traced {
		rec = newRecorder(replayInstances * spansPerInstance)
	}
	if w.live {
		win, ll, err = runLive(ctx, w, seed, seconds, traced)
	} else {
		win, sl, err = runSim(ctx, w, seed, seconds, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := &report{workload: w.name, traced: traced, attempted: win.checked, failed: win.failed, firstErr: win.firstEr}
	if traced {
		rep.values, err = layerValues(ctx, w, seed, seconds, win, ll, sl, rec, traceOut)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		rep.values = win.endToEndValues(w.window > 0)
	}
	// The driver reads a missing metric as a malformed result; a table that
	// gained a name no code fills must fail here, not print a zero.
	for _, m := range rep.metrics() {
		if _, ok := rep.values[m.name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
		}
	}
	return rep, nil
}
