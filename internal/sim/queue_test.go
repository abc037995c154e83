package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// backdatedDelay returns latencies in [−5µs, 5ns]: mostly negative (clamped
// to zero by the engine), sometimes zero, sometimes a few nanoseconds — all
// below or at the FIFO nudge's scale, so nearly every send lands on its
// link's floor.
type backdatedDelay struct{}

func (backdatedDelay) Delay(_, _ ProcID, _ time.Duration, rng *rand.Rand) time.Duration {
	if rng.Intn(2) == 0 {
		return -time.Duration(rng.Intn(5000))
	}
	return time.Duration(rng.Intn(6))
}

// TestSendKeepsLanesSorted: the lane queue is exact only while every lane is
// sorted by (time, seq), and Engine.send — the one producer — must make a
// violation impossible whatever the delay model returns. After every send
// the (time, seq) it pushed — the link's floor and the engine's sequence
// counter — is compared with the link's previous push, and every pop must
// return its link's pushes in that order and respect the global order and
// causality (no arrival before its send), across lanes that drain and
// refill.
func TestSendKeepsLanesSorted(t *testing.T) {
	const n = 4
	models := map[string]DelayModel{
		"negative": backdatedDelay{},
		"zero":     ConstantDelay{},
		"capped":   ExponentialDelay{Mean: time.Millisecond, Cap: 3 * time.Nanosecond},
		"starve": StarveSenders{
			Inner: UniformDelay{Max: 2 * time.Nanosecond},
			Slow:  map[ProcID]bool{0: true},
			Extra: time.Microsecond,
		},
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = nodeFunc(func(API) {})
			}
			e, err := NewEngine(Config{N: n, Seed: 11, Delay: model}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(12))
			var (
				pushed  [n * n][]event // per link, in push order; popped from the front
				lastPop event
			)
			pop := func() {
				ev := e.queue.pop()
				link := int(ev.from)*n + int(ev.to)
				if want := pushed[link][0]; ev.at != want.at || ev.seq != want.seq {
					t.Fatalf("link %d: popped (%v, %d), pushed (%v, %d)", link, ev.at, ev.seq, want.at, want.seq)
				}
				pushed[link] = pushed[link][1:]
				if ev.at < lastPop.at || (ev.at == lastPop.at && ev.seq <= lastPop.seq) {
					t.Fatalf("pop %+v after %+v: global (time, seq) order broken", ev, lastPop)
				}
				if sentAt := ev.msg.(time.Duration); ev.at < sentAt {
					t.Fatalf("%+v arrives before it was sent", ev)
				}
				lastPop, e.now = ev, ev.at
			}
			for step := 0; step < 20000; step++ {
				// Bursts of sends, then bursts of pops, so lanes grow long
				// and also run dry with their floor still standing.
				if (step/64)%3 == 2 && !e.queue.empty() {
					pop()
					continue
				}
				from, to := rng.Intn(n), rng.Intn(n)
				e.send(ProcID(from), ProcID(to), e.now)
				link := from*n + to
				ev := event{at: e.lastArr[link], seq: e.seq}
				if k := len(pushed[link]); k > 0 {
					if prev := pushed[link][k-1]; ev.seq <= prev.seq || ev.at < prev.at+fifoNudge {
						t.Fatalf("link %d: pushed (%v, %d) behind its tail (%v, %d)", link, ev.at, ev.seq, prev.at, prev.seq)
					}
				}
				if ev.at < e.now {
					t.Fatalf("link %d: arrival %v scheduled before now %v", link, ev.at, e.now)
				}
				pushed[link] = append(pushed[link], ev)
			}
			for !e.queue.empty() {
				pop()
			}
			for link := range pushed {
				if len(pushed[link]) != 0 {
					t.Fatalf("link %d: %d events lost", link, len(pushed[link]))
				}
			}
		})
	}
}

// volleyNode broadcasts one message at Init and returns every message it
// receives to its sender until it has handled limit of them. The payload is
// a constant string, so the node itself allocates nothing.
type volleyNode struct{ handled, limit int }

func (v *volleyNode) Init(api API) { api.Broadcast("ball") }

func (v *volleyNode) OnMessage(api API, from ProcID, msg Message) {
	if v.handled++; v.handled <= v.limit {
		api.Send(from, msg)
	}
}

// runVolley runs an n-node volley to quiescence and returns the statistics
// and the number of heap allocations Run performed.
func runVolley(tb testing.TB, n, limit int, delay DelayModel) (Stats, uint64) {
	tb.Helper()
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &volleyNode{limit: limit}
	}
	eng, err := NewEngine(Config{N: n, Seed: 7, Delay: delay}, nodes)
	if err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := eng.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return stats, after.Mallocs - before.Mallocs
}

// TestRunAllocsPerDelivery: the event loop allocates nothing per delivery;
// what remains is the lane buffers' growth.
func TestRunAllocsPerDelivery(t *testing.T) {
	stats, mallocs := runVolley(t, 15, 2000, ExponentialDelay{Mean: 5 * time.Millisecond})
	if stats.Delivered < 30000 {
		t.Fatalf("only %d deliveries", stats.Delivered)
	}
	if per := float64(mallocs) / float64(stats.Delivered); per >= 0.05 {
		t.Fatalf("%d allocations for %d deliveries = %.3f per delivery, want < 0.05", mallocs, stats.Delivered, per)
	}
}
