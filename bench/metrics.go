package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapAfterGC forces a collection and returns the bytes of the objects
// that survived it, so memory parked in caches, linger tables or memos shows
// and garbage does not. (HeapInuse counts whole spans and moved with
// fragmentation from run to run.)
func liveHeapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// window is the measured part of one run, common to live and sim
// workloads: what was attempted, what failed, and the per-op timings.
type window struct {
	ops     int // measured operations
	checked int // operations whose output was checked: measured plus warm-up
	failed  int
	opMs    []float64   // per-op latency (live) or wall time (sim)
	doneAt  []time.Time // per-op completion: which stretch of the window an op falls in
	start   time.Time
	end     time.Time
	cpu     time.Duration
	heap    uint64    // live heap after a forced GC
	held    int       // ops whose state the system still held when heap was read
	setupS  []float64 // one per set-up repetition
	firstEr error     // first failure, for the report
}

// The box this runs on stalls for tens of milliseconds several times a
// minute, and a stall lands on whichever ops are in flight. So the window
// is cut into equal stretches of time, each statistic is taken per stretch,
// and the median stretch is reported: one disturbed stretch moves nothing.
// There are as many stretches, up to five, as leave each a hundred ops, so
// that a stretch's p90 still has ten samples beyond it.
const (
	maxStretches  = 5
	opsPerStretch = 100
)

// stretches returns the per-op times grouped by the stretch of the window
// each op completed in.
func (w *window) stretches() [][]float64 {
	k := max(1, min(maxStretches, w.ops/opsPerStretch))
	out := make([][]float64, k)
	span := w.end.Sub(w.start)
	for i, t := range w.doneAt {
		at := int(time.Duration(k) * t.Sub(w.start) / span)
		at = max(0, min(at, k-1))
		out[at] = append(out[at], w.opMs[i])
	}
	return out
}

// endToEndValues maps the window onto the end-to-end metric names.
// Throughput is ops over the window, except on the closed loop, whose
// throughput is the result rather than the offered load and is taken per
// stretch like the latencies.
func (w *window) endToEndValues(closedLoop bool) map[string]float64 {
	parts := w.stretches()
	var p50s, p90s, rates []float64
	stretch := w.end.Sub(w.start).Seconds() / float64(len(parts))
	for _, part := range parts {
		sorted := sortedCopy(part)
		p50s = append(p50s, percentile(sorted, 0.50))
		p90s = append(p90s, percentile(sorted, 0.90))
		rates = append(rates, float64(len(part))/stretch)
	}
	rate := float64(w.ops) / w.end.Sub(w.start).Seconds()
	if closedLoop {
		rate = median(rates)
	}
	return map[string]float64{
		"op_p50_ms":           median(p50s),
		"op_p90_ms":           median(p90s),
		"ops_per_s":           rate,
		"cpu_ms_per_op":       ms(w.cpu) / float64(max(w.ops, 1)),
		"heap_kb_per_held_op": float64(w.heap) / 1024 / float64(max(w.held, 1)),
		"setup_s":             median(w.setupS),
	}
}
