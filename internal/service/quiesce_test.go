package service

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/raceflag"
)

// The decided → lingering → tombstoned transition: a decided instance
// lingers only while it can still send something. On a healthy mesh every
// reliable broadcast finishes everywhere and the instance tombstones within
// moments of its decision, long before LingerTimeout; behind a crashed
// origin one broadcast never finishes, and only LingerTimeout ends it.

// TestQuiescentInstanceTombstones: on a healthy mesh with a one-minute
// linger window, every decided instance leaves the linger state within 2 s
// of the last decision, counted as quiesced.
func TestQuiescentInstanceTombstones(t *testing.T) {
	const n, instances = 5, 8
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.LingerTimeout = time.Minute
	})
	rng := rand.New(rand.NewSource(67))
	var all [][]<-chan Result
	for id := uint64(1); id <= instances; id++ {
		all = append(all, proposeAll(t, svcs, id, randomInputs(rng, n, 2)))
	}
	for _, chans := range all {
		for i, ch := range chans {
			if res := collect(t, ch, 30*time.Second); res.Err != nil {
				t.Fatalf("process %d: %v", i, res.Err)
			}
		}
	}
	for i, s := range svcs {
		awaitStat(t, s, "every decided instance quiesced", 2*time.Second, func(st Stats) bool {
			return st.Lingering == 0
		})
		if st := s.Stats(); st.Quiesced != instances || st.Decided != instances {
			t.Errorf("service %d: %d quiesced of %d decided, want %d of %d", i, st.Quiesced, st.Decided, instances, instances)
		}
	}
}

// TestCrashedOriginInstanceLingers is the counterpart: one process is
// closed before it proposes, so its broadcasts never start, no survivor's
// instance can quiesce, and each lingers for its whole window and is then
// tombstoned by expiry, not counted as quiesced.
func TestCrashedOriginInstanceLingers(t *testing.T) {
	const n = 5
	const linger = time.Second
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.LingerTimeout = linger
	})
	_ = svcs[n-1].Close()
	live := svcs[:n-1]
	rng := rand.New(rand.NewSource(71))
	for i, ch := range proposeAll(t, live, 1, randomInputs(rng, n, 2)) {
		if res := collect(t, ch, 30*time.Second); res.Err != nil {
			t.Fatalf("process %d: %v", i, res.Err)
		}
	}
	decided := time.Now()
	time.Sleep(linger / 4)
	for i, s := range live {
		if st := s.Stats(); st.Lingering != 1 || st.Quiesced != 0 {
			t.Errorf("service %d a quarter into the window: lingering %d, quiesced %d; want 1, 0", i, st.Lingering, st.Quiesced)
		}
	}
	for i, s := range live {
		awaitStat(t, s, "lingering instance tombstoned at its window", 10*time.Second, func(st Stats) bool {
			return st.Lingering == 0
		})
		if st := s.Stats(); st.Quiesced != 0 {
			t.Errorf("service %d: quiesced %d, want 0", i, st.Quiesced)
		}
	}
	if held := time.Since(decided); held < linger {
		t.Errorf("instances tombstoned %v after deciding, before the %v window closed", held, linger)
	}
}

// decidedInstanceBudget is the committed ceiling on heap retained per
// decided instance across the five processes of an in-process n = 5 mesh
// with a one-minute linger window, 2 s after the last decision. One
// tombstoned on quiescence leaves next to nothing of its own: the batch's
// sequential ids merge into one tombstone range. Twenty-three runs
// measured −59 to 30 B; one instance that kept lingering would hold ~4 KB
// (see lingeringInstanceBudget). The mesh runs its own Γ engine, reset
// before each heap reading: its memo grows with every distinct input.
const decidedInstanceBudget = 1 << 10

// lingeringInstanceBudget is the committed ceiling on heap retained per
// decided instance that still lingers, across the four survivors of an
// n = 5 mesh whose fifth process closed before proposing. Such an instance
// keeps only what it can still send with: its record, its exchange
// coordinator and RBC, and per round one bit per origin saying which
// broadcasts finished — every round's slab went when its four touched
// broadcasts finished, and the node (history, outbox, round state) and the
// result channel went at the decision. The measured 3.4–4.5 KB is about
// 0.9 KB per survivor; while every round kept its whole RBC slab and the
// service kept the decided node, each instance held 20.5 KB here.
const lingeringInstanceBudget = 6 << 10

// footprintBatch proposes instances [first, first+footprintInstances) on
// every service and waits for every result.
func footprintBatch(t *testing.T, svcs []*Service, rng *rand.Rand, first uint64) {
	t.Helper()
	var all [][]<-chan Result
	for id := first; id < first+footprintInstances; id++ {
		all = append(all, proposeAll(t, svcs, id, randomInputs(rng, svcs[0].n, 2)))
	}
	for _, chans := range all {
		for i, ch := range chans {
			if res := collect(t, ch, 30*time.Second); res.Err != nil {
				t.Fatalf("process %d: %v", i, res.Err)
			}
		}
	}
}

// footprintInstances is the batch size of the footprint tests.
const footprintInstances = 200

// heapAfterGC is HeapAlloc after a full collection.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties the sync.Pools' victim caches
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDecidedInstanceFootprint measures HeapAlloc after GC before and after
// a batch of 200 concurrent instances on one mesh and pins the difference
// per instance. -v logs the measured figure; re-pin from it after an
// intentional change.
//
// It measures what decided instances keep, so it excludes three buffers
// that grow once, to the high-water mark of a burst, and are then reused:
// the loop's inbox swap buffers, bounded at 512 frames; each link's outbox
// and writer batch swap buffers, bounded at 256 frames; and the instance
// table's map. Three warm-up batches take all of them to their marks. At
// the default bounds an outbox buffer of some link still grew in most
// measured batches, and the test read 0.02–3.1 KB per instance run to run.
func TestDecidedInstanceFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const n, instances = 5, footprintInstances
	engine := core.NewEngine(1)
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.LingerTimeout = time.Minute
		cfg.Node.Engine = engine
		cfg.QueueDepth = 512  // see above
		cfg.OutboxDepth = 256 // see above
	})
	rng := rand.New(rand.NewSource(73))
	batch := func(first uint64) {
		footprintBatch(t, svcs, rng, first)
		// Up to 2 s for the instances to leave the linger state; the heap,
		// not this wait, is what the test judges.
		lingering := func() (sum int64) {
			for _, s := range svcs {
				sum += s.Stats().Lingering
			}
			return sum
		}
		for deadline := time.Now().Add(2 * time.Second); lingering() > 0 && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
	}
	for k := range uint64(3) {
		batch(1 + k*instances)
	}
	engine.Reset()
	before := heapAfterGC()
	batch(1 + 3*instances)
	engine.Reset()
	per := (int64(heapAfterGC()) - int64(before)) / instances
	t.Logf("%d bytes retained per decided instance (budget %d)", per, decidedInstanceBudget)
	if per > decidedInstanceBudget {
		t.Errorf("%d bytes retained per decided instance, budget %d", per, decidedInstanceBudget)
	}
}

// TestLingeringInstanceFootprint is the same measurement behind a crashed
// origin: process 4 is closed before anything is proposed, so no survivor's
// instance can quiesce, and every instance of the three batches must still
// be lingering when the heap is read. It pins what one lingering instance
// holds per lingeringInstanceBudget. The loop's inbox is bounded at 512
// frames, so the warm-up batches take its swap buffers to the bound: at
// the default 4 096 a buffer that first reaches a new high-water mark in
// the measured batch keeps it, which added 0–2.4 KB per instance, run to
// run, to the ~3.5 KB the instances themselves hold.
func TestLingeringInstanceFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const n, instances = 5, footprintInstances
	engine := core.NewEngine(1)
	svcs := startMesh(t, n, func(_ int, cfg *Config) {
		cfg.LingerTimeout = time.Minute
		cfg.Node.Engine = engine
		cfg.QueueDepth = 512 // see above
	})
	_ = svcs[n-1].Close()
	live := svcs[:n-1]
	rng := rand.New(rand.NewSource(79))
	footprintBatch(t, live, rng, 1)
	footprintBatch(t, live, rng, 1+instances)
	engine.Reset()
	before := heapAfterGC()
	footprintBatch(t, live, rng, 1+2*instances)
	engine.Reset()
	per := (int64(heapAfterGC()) - int64(before)) / instances
	for i, s := range live {
		if st := s.Stats(); st.Lingering != 3*instances || st.Quiesced != 0 {
			t.Errorf("service %d: lingering %d, quiesced %d; want %d, 0", i, st.Lingering, st.Quiesced, 3*instances)
		}
	}
	t.Logf("%d bytes retained per lingering instance (budget %d)", per, lingeringInstanceBudget)
	if per > lingeringInstanceBudget {
		t.Errorf("%d bytes retained per lingering instance, budget %d", per, lingeringInstanceBudget)
	}
}
