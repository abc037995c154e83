package harness

import (
	"testing"

	"repro"
)

// MeasureTable measures one experiment runner (or the calibration
// kernel) with the standard benchmark machinery — the measurement protocol
// behind every record cmd/bvcbench -json emits. The Γ-point caches are
// reset before every iteration so each measures a cold-cache run
// (within-run memoization still counts — that is product behavior);
// without the reset, later iterations would replay the process-wide memo
// table and ns/op would shrink with iteration count instead of measuring
// the engine.
//
// The returned GammaCounters are PER-OP: the Γ-reuse counter deltas of the
// final measured invocation divided by its iteration count. Snapshotting
// inside the benchmark closure matters — testing.Benchmark ramps through
// probe invocations before the measured one, and folding their counters in
// would inflate every per-op value by a factor that varies with the
// (timing-dependent) iteration schedule.
func MeasureTable(run func() (*Table, error)) (*Table, testing.BenchmarkResult, bvc.GammaCounters, error) {
	var (
		tbl      *Table
		rerr     error
		counters bvc.GammaCounters
	)
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		before := bvc.EngineGammaCounters()
		for i := 0; i < b.N; i++ {
			bvc.ResetEngineCaches()
			tbl, rerr = run()
			if rerr != nil {
				b.Fatalf("%v", rerr)
			}
		}
		delta := bvc.EngineGammaCounters().Sub(before)
		n := uint64(b.N)
		counters = bvc.GammaCounters{
			Solves:     delta.Solves / n,
			CacheHits:  delta.CacheHits / n,
			PrefixHits: delta.PrefixHits / n,
			RoundHits:  delta.RoundHits / n,
		}
	})
	return tbl, br, counters, rerr
}

// RunSerialNodes runs fn with simulated-node stepping forced serial
// (NodeWorkers = 1), restoring the configured engine options afterwards —
// the "e10/nodeworkers=1" companion measurement, which records the
// cross-node parallelism headroom in BENCH trajectories.
func RunSerialNodes(fn func() (*Table, error)) (*Table, error) {
	saved := engineOptions
	SetEngineOptions(saved.workers, saved.disableCache, 1)
	defer SetEngineOptions(saved.workers, saved.disableCache, saved.nodeWorkers)
	return fn()
}
