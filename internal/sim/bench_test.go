package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkEventQueue times the engine's pending-event set in the hold
// model: at a fixed depth, pop the earliest event and push one successor on
// a random link with an exponential delay past its FIFO floor — the queue
// traffic of a run, without the nodes.
func BenchmarkEventQueue(b *testing.B) {
	const n = 15
	for _, depth := range []int{256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			q := newLaneQueue(n)
			floor := make([]time.Duration, n*n)
			var seq uint64
			push := func(now time.Duration) {
				from, to := rng.Intn(n), rng.Intn(n)
				at := max(now+time.Duration(rng.ExpFloat64()*float64(time.Millisecond)), floor[from*n+to]+fifoNudge)
				floor[from*n+to] = at
				seq++
				q.push(event{at: at, seq: seq, from: ProcID(from), to: ProcID(to), msg: "m"})
			}
			for i := 0; i < depth; i++ {
				push(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(q.pop().at)
			}
		})
	}
}

// BenchmarkEngineDelivery times whole runs of a 15-node volley and reports
// the cost per delivery, on the serial loop and on the batch loop with two
// workers. The exponential model has no lookahead, so its batches are
// almost all single events; the shifted exponential's floor widens them to
// many destinations, which is where the batch loop pays for its goroutines.
func BenchmarkEngineDelivery(b *testing.B) {
	delays := []struct {
		name  string
		model DelayModel
	}{
		{"exponential", ExponentialDelay{Mean: 5 * time.Millisecond}},
		{"shiftedexp", ShiftedExponentialDelay{Floor: 2 * time.Millisecond, TailMean: 3 * time.Millisecond}},
	}
	loops := []struct {
		name        string
		nodeWorkers int
	}{{"serial", 1}, {"workers=2", 2}}
	for _, loop := range loops {
		for _, delay := range delays {
			b.Run(loop.name+"/"+delay.name, func(b *testing.B) {
				var delivered int64
				var mallocs uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stats, m := runVolley(b, 15, 2000, loop.nodeWorkers, delay.model)
					delivered += stats.Delivered
					mallocs += m
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/delivery")
				b.ReportMetric(float64(mallocs)/float64(delivered), "allocs/delivery")
			})
		}
	}
}
