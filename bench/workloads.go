package main

import (
	"time"

	bvc "repro"
	"repro/internal/harness"
)

// Everything that shapes a measurement is a constant in this file, not a
// flag: two reports made with the same -seconds are comparable by
// construction. -seconds only sets how long each workload is measured.

// The live workloads all run the same five-process §3.2 mesh. f = 1 takes
// the Radon closed form for every Γ-point, so the LP layers do no work here
// and the cost is communication: RBC + witness exchange, wire, service.
const (
	liveN = 5
	// warmupSeconds of the workload's own load run before the measured
	// window, so frame pools, the heap and the linger tables are warm when
	// timing starts. Warm-up instances are checked but not measured.
	warmupSeconds = 1
	// instanceTimeout bounds how long any instance can hold a result
	// channel, and with it how long a run can outlive its window.
	instanceTimeout = 10 * time.Second
	// lingerTimeout is how long a decided instance keeps serving lagging
	// peers. Shorter than the measured window, so the linger tables are in
	// steady state when the heap is read and do not grow with -seconds.
	lingerTimeout = 2 * time.Second
	// A run sets up several times and reports the median as setup_s: a live
	// workload builds and establishes its mesh (a few milliseconds each), a
	// sim workload resets the engines and executes one cold cell.
	liveSetupReps = 60
	simSetupReps  = 5
	// replayInstances is how many of a live workload's instances the
	// traced run replays through the in-memory mesh.
	replayInstances = 100
	// spansPerInstance sizes the span buffer: a replayed instance records
	// about 4 170 spans (1 600 steps, 1 280 encodes, 1 280 decodes).
	spansPerInstance = 4200
)

func liveConfig() bvc.Config {
	return bvc.Config{
		N: liveN, F: 1, D: 2,
		Epsilon:   0.05,
		Lo:        []float64{0},
		Hi:        []float64{1},
		MaxRounds: 4,
	}
}

// workload is one set of inputs the benchmark runs. A live workload drives
// an in-process loopback mesh; a sim workload executes harness sweep cells.
type workload struct {
	name string
	why  string

	// Live workloads: rate > 0 is an open loop at that many instances per
	// second, timed from each instance's due time; window > 0 is a closed
	// loop with that many instances outstanding. linkDelay is a fixed
	// one-way delay on every link; crashed is the process closed before
	// the first instance (-1: none).
	live      bool
	rate      float64
	window    int
	linkDelay time.Duration
	crashed   int

	// Sim workloads: the cell executed once per op, each op under its own
	// seed with the Γ caches reset. exactOps is the fixed op prefix the
	// exact per-run counts are taken over; a run never executes fewer.
	cell     harness.SweepCell
	exactOps int
}

var workloads = []workload{
	{
		name: "live-open-n5",
		why:  "open loop at 150 inst/s, CPUs under half busy: the operator's propose-to-decide latency; f=1 is all Radon, so service/wire/aad/broadcast do the work and lp none",
		live: true, rate: 150, crashed: -1,
	},
	{
		name: "live-closed-n5",
		why:  "closed loop, 8 instances outstanding: capacity; the mesh is CPU-saturated, so per-frame costs (codec, writer batching, shard dispatch, allocation) set the result",
		live: true, window: 8, crashed: -1,
	},
	{
		name: "live-wan-n5-crash1",
		why:  "open loop at 50 inst/s, 1 ms one-way delay on every link, process 4 crashed: latency is message hops times delay, not CPU, so a CPU optimisation predicts no change; the fault-injected run",
		live: true, rate: 50, linkDelay: time.Millisecond, crashed: liveN - 1,
	},
	{
		name:     "sim-rasync-f2",
		why:      "restricted-async n=13 f=2 d=2, Gamma caches cold for every run: about 14k Gamma-point solves at 70% reuse, so lp/hull/safearea/tverberg dominate and the network is absent",
		cell:     harness.SweepCell{Variant: "rasync", N: 13, F: 2, D: 2, Adversary: "none", Delay: "shiftedexp"},
		exactOps: 12,
	},
	{
		name:     "sim-approx-reuse",
		why:      "witness-optimised approx n=15 f=2 d=4 under a lure adversary: 99% Gamma memo hits, so key hashing and the sim/aad/broadcast state machines dominate and LP solves are absent",
		cell:     harness.SweepCell{Variant: "approx", N: 15, F: 2, D: 4, Adversary: "lure", Delay: "exponential"},
		exactOps: 32,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric declares one reported number. bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics have none.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. BENCHMARK.json repeats this table and a test keeps
// the two in step.
var endToEnd = []metric{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_kb_per_held_op", "KB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}
