package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ResolveWorkers maps a worker-count knob to a concrete pool size: zero (or
// negative) selects GOMAXPROCS, and the result is capped at jobs so no
// worker ever idles from the start.
func ResolveWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Fan shares the jobs [0, jobs) of one fan-out among the goroutine that
// called FanOut, which is always worker 0, and up to workers−1 helper
// goroutines. Helpers start only when worker 0 calls Grow, so a fan-out
// whose work turns out to be cheap never leaves its caller's goroutine and
// pays for no goroutine or join; a fan-out whose every job is worth a
// goroutine calls Grow first thing.
type Fan struct {
	jobs    int64
	next    atomic.Int64
	stopped atomic.Bool
	err     error // the first error passed to Stop
	idle    int   // helpers not yet started; read and written by worker 0 only
	wg      sync.WaitGroup
	work    func(f *Fan, w int)
}

// FanOut runs work(f, 0) on the calling goroutine and returns once it and
// every helper started by f.Grow — work(f, w) on its own goroutine for each
// w in [1, workers) — have returned. workers is resolved by ResolveWorkers
// against jobs. FanOut returns the first error passed to Stop, or nil.
func FanOut(workers, jobs int, work func(f *Fan, w int)) error {
	f := Fan{jobs: int64(jobs), idle: ResolveWorkers(workers, jobs) - 1, work: work}
	work(&f, 0)
	f.wg.Wait()
	return f.err
}

// Grow starts the fan's helpers. Only worker 0 may call it; calls after
// the first, and every call on a one-worker fan, do nothing.
func (f *Fan) Grow() {
	for ; f.idle > 0; f.idle-- {
		f.wg.Add(1)
		go func(w int) {
			defer f.wg.Done()
			f.work(f, w)
		}(f.idle)
	}
}

// Claim reserves the next run of at most n jobs as [lo, hi). ok is false
// once every job is claimed or the fan has stopped.
func (f *Fan) Claim(n int) (lo, hi int, ok bool) {
	if f.stopped.Load() {
		return 0, 0, false
	}
	end := f.next.Add(int64(n))
	start := end - int64(n)
	if start >= f.jobs {
		return 0, 0, false
	}
	return int(start), int(min(end, f.jobs)), true
}

// Stop makes every later Claim fail and, on its first call, records err
// for FanOut to return. Work already claimed is not interrupted.
func (f *Fan) Stop(err error) {
	if f.stopped.CompareAndSwap(false, true) {
		f.err = err
	}
}
