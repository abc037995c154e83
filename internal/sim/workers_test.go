package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestFanOutClaimsEveryJobOnce: whatever the run length, the worker bound
// and the job at which worker 0 grows the fan (never, first, mid-way),
// every job is claimed by exactly one worker, and no helper runs before
// Grow — a fan that never grows does all its work on worker 0.
func TestFanOutClaimsEveryJobOnce(t *testing.T) {
	const jobs = 100
	for _, run := range []int{1, 8} {
		for _, workers := range []int{1, 3} {
			for _, growAt := range []int{-1, 0, jobs / 2} {
				name := fmt.Sprintf("run=%d/workers=%d/growAt=%d", run, workers, growAt)
				var visits [jobs]atomic.Int32
				var helperJobs atomic.Int32
				err := FanOut(workers, jobs, func(f *Fan, w int) {
					for {
						lo, hi, ok := f.Claim(run)
						if !ok {
							return
						}
						for i := lo; i < hi; i++ {
							if w == 0 && i == growAt {
								f.Grow()
							}
							if w != 0 {
								helperJobs.Add(1)
							}
							visits[i].Add(1)
						}
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("%s: job %d ran %d times", name, i, got)
					}
				}
				if growAt < 0 && helperJobs.Load() != 0 {
					t.Fatalf("%s: helpers ran %d jobs before any Grow", name, helperJobs.Load())
				}
			}
		}
	}
}

// TestFanOutStop: FanOut returns the first error passed to Stop, and no
// job is claimed after it.
func TestFanOutStop(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	var claimedAfter atomic.Bool
	err := FanOut(3, 10, func(f *Fan, w int) {
		if w != 0 {
			return
		}
		f.Grow()
		f.Stop(first)
		f.Stop(second)
		if _, _, ok := f.Claim(1); ok {
			claimedAfter.Store(true)
		}
	})
	if !errors.Is(err, first) {
		t.Fatalf("FanOut returned %v, want %v", err, first)
	}
	if claimedAfter.Load() {
		t.Fatal("Claim succeeded after Stop")
	}
}
