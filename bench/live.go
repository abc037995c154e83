package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	bvc "repro"
	"repro/internal/chaos"
)

// mesh is the n services of one live workload, all in this process on
// 127.0.0.1:0. A nil entry is a crashed process.
type mesh struct {
	svcs  []*bvc.Service
	injs  []*chaos.Injector
	addrs []string
}

// buildMesh binds n services, wraps them in the workload's link profile
// and establishes the full mesh. On error nothing is left open.
func buildMesh(ctx context.Context, w *workload, seed int64) (*mesh, error) {
	cfg := liveConfig()
	m := &mesh{svcs: make([]*bvc.Service, cfg.N), addrs: make([]string, cfg.N)}
	if w.linkDelay > 0 {
		scn := &chaos.Scenario{
			Name:  w.name,
			Seed:  int64(derive(seed, streamChaos, 0) >> 1),
			Links: []chaos.LinkFault{{From: chaos.Wildcard, To: chaos.Wildcard, Delay: chaos.Dur(w.linkDelay)}},
		}
		m.injs = make([]*chaos.Injector, cfg.N)
		for i := range m.injs {
			inj, err := chaos.NewInjector(scn, cfg.N, i)
			if err != nil {
				return nil, err
			}
			m.injs[i] = inj
		}
	}
	tmpl := make([]string, cfg.N)
	for i := range tmpl {
		tmpl[i] = "127.0.0.1:0"
	}
	for i := range m.svcs {
		scfg := bvc.ServiceConfig{
			Config:          cfg,
			ID:              i,
			Addrs:           tmpl,
			InstanceTimeout: instanceTimeout,
			LingerTimeout:   lingerTimeout,
			Seed:            int64(derive(seed, streamService, uint64(i)) >> 1),
		}
		if m.injs != nil {
			scfg.Transport = m.injs[i]
		}
		s, err := bvc.NewService(scfg)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
		m.svcs[i] = s
		m.addrs[i] = s.Addr()
	}
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for i, s := range m.svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Establish(ctx, m.addrs)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.Close()
		return nil, fmt.Errorf("establish: %w", err)
	}
	return m, nil
}

// crash closes process p abruptly; the survivors keep the instance
// quorum (n − f) only if every one of them answers.
func (m *mesh) crash(p int) {
	_ = m.svcs[p].Close() // a crash has nobody to report to
	m.svcs[p] = nil
}

// Close closes every service and stops every injector. It is idempotent.
func (m *mesh) Close() {
	for i, s := range m.svcs {
		if s != nil {
			_ = s.Close() // shutting down; in-flight instances fail with ErrServiceClosed by design
			m.svcs[i] = nil
		}
	}
	for _, inj := range m.injs {
		inj.Stop()
	}
}

// listenersClosed reports an error if any address the mesh bound still
// accepts connections.
func (m *mesh) listenersClosed() error {
	for i, addr := range m.addrs {
		if addr == "" {
			continue
		}
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			return fmt.Errorf("process %d still listening on %s after Close", i, addr)
		}
	}
	return nil
}

// totals sums the processes' counters; gauges are summed too, which is
// what the queue-depth sampler wants.
func (m *mesh) totals() bvc.ServiceStats {
	var t bvc.ServiceStats
	for _, s := range m.svcs {
		if s == nil {
			continue
		}
		st := s.Stats()
		t.FramesOut += st.FramesOut
		t.BytesOut += st.BytesOut
		t.WriteRetries += st.WriteRetries
		t.WriteDrops += st.WriteDrops
		t.Reconnects += st.Reconnects
		t.PendingFrames += st.PendingFrames
		t.QueueDepth += st.QueueDepth
	}
	return t
}

// instRec is one live instance as the benchmark saw it from outside.
type instRec struct {
	id        uint64
	due       time.Time // schedule time (open loop) or when its window slot freed (closed loop)
	issued    time.Time // every Propose call returned
	decided   time.Time // the last live process delivered its result
	inputs    []bvc.Vector
	decisions []bvc.Vector
	err       error
}

// issue proposes instance id on every live process.
func (m *mesh) issue(seed int64, id uint64, due time.Time) (*instRec, []<-chan bvc.ServiceResult) {
	cfg := liveConfig()
	rec := &instRec{id: id, due: due}
	all := liveInputs(seed, id, cfg.N, cfg.D)
	chans := make([]<-chan bvc.ServiceResult, 0, cfg.N)
	for p, s := range m.svcs {
		if s == nil {
			continue
		}
		ch, err := s.Propose(id, all[p])
		if err != nil {
			rec.err = fmt.Errorf("propose on process %d: %w", p, err)
			continue
		}
		rec.inputs = append(rec.inputs, all[p])
		chans = append(chans, ch)
	}
	rec.issued = time.Now()
	return rec, chans
}

// await blocks until every process that accepted the proposal reported.
// InstanceTimeout and Close both deliver a result, so it always returns.
func (rec *instRec) await(chans []<-chan bvc.ServiceResult) {
	for _, ch := range chans {
		r := <-ch
		if r.Err != nil {
			rec.err = r.Err
			continue
		}
		rec.decisions = append(rec.decisions, r.Decision)
	}
	rec.decided = time.Now()
}

// driveOpen issues count instances on a fixed schedule, never waiting for
// completions, and returns once all of them finished.
func driveOpen(ctx context.Context, m *mesh, seed int64, firstID uint64, count int, rate float64) []*instRec {
	recs := make([]*instRec, 0, count)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < count && ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		rec, chans := m.issue(seed, firstID+uint64(k), due)
		recs = append(recs, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.await(chans)
		}()
	}
	wg.Wait()
	return recs
}

// driveClosed keeps window instances outstanding until the deadline: a
// slot that frees after it is not refilled.
func driveClosed(ctx context.Context, m *mesh, seed int64, firstID uint64, until time.Time, window int) []*instRec {
	var (
		mu   sync.Mutex
		recs []*instRec
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range window {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for ctx.Err() == nil && free.Before(until) {
				k := next.Add(1) - 1
				rec, chans := m.issue(seed, firstID+uint64(k), free)
				rec.await(chans)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
				free = rec.decided
			}
		}()
	}
	wg.Wait()
	return recs
}

// checkInstance is the correctness check of one live instance: every
// decision lies in the convex hull of the inputs actually proposed (the
// paper's validity condition) and the decisions are strictly closer
// together than the inputs were (the per-round contraction ε-agreement is
// built from; four rounds do not reach ε itself).
func checkInstance(inputs, decisions []bvc.Vector) error {
	if len(decisions) != len(inputs) {
		return fmt.Errorf("%d decisions for %d proposals", len(decisions), len(inputs))
	}
	for p, dec := range decisions {
		in, err := bvc.InConvexHull(inputs, dec)
		if err != nil {
			return fmt.Errorf("hull check, process %d: %w", p, err)
		}
		if !in {
			return fmt.Errorf("process %d decided %v outside the hull of the inputs", p, dec)
		}
	}
	if si, sd := spread(inputs), spread(decisions); si > 0 && sd >= si {
		return fmt.Errorf("no contraction: decision spread %g, input spread %g", sd, si)
	}
	return nil
}

// spread is the largest per-coordinate range of the vectors.
func spread(vs []bvc.Vector) float64 {
	var worst float64
	for j := range vs[0] {
		lo, hi := vs[0][j], vs[0][j]
		for _, v := range vs[1:] {
			lo, hi = min(lo, v[j]), max(hi, v[j])
		}
		worst = max(worst, hi-lo)
	}
	return worst
}

// liveLayer is what a live run tells about the service layer, read from
// Stats() deltas around the measured window.
type liveLayer struct {
	stats        bvc.ServiceStats
	mallocs      uint64
	gamma        bvc.GammaCounters
	outboxMax    int
	pendingMax   int64
	establishMs  float64
	genLagMs     []float64
	decideP99Ms  float64
	measuredInst int
}

// runLive measures one live workload for the given time. With sample set
// it also polls the outbox and pending gauges during the window.
func runLive(ctx context.Context, w *workload, seed int64, seconds float64, sample bool) (*window, *liveLayer, error) {
	baseline := runtime.NumGoroutine()
	win := &window{}
	lay := &liveLayer{}

	var m *mesh
	for rep := range liveSetupReps {
		t0 := time.Now()
		built, err := buildMesh(ctx, w, seed)
		if err != nil {
			return nil, nil, err
		}
		win.setupS = append(win.setupS, time.Since(t0).Seconds())
		if rep < liveSetupReps-1 {
			built.Close()
			continue
		}
		m = built
	}
	defer m.Close()
	lay.establishMs = median(win.setupS) * 1e3
	if w.crashed >= 0 {
		m.crash(w.crashed)
	}

	// drive loads the mesh for the given time, starting at instance firstID.
	drive := func(firstID uint64, seconds float64) []*instRec {
		if w.window > 0 {
			until := time.Now().Add(time.Duration(seconds * float64(time.Second)))
			return driveClosed(ctx, m, seed, firstID, until, w.window)
		}
		return driveOpen(ctx, m, seed, firstID, max(1, int(w.rate*seconds)), w.rate)
	}
	warm := drive(1, warmupSeconds)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	stopSampler := func() {}
	if sample {
		stopSampler = lay.sampleQueues(m)
	}
	stats0, gamma0, mallocs0 := m.totals(), bvc.EngineGammaCounters(), mallocs()
	cpu0 := cpuTime()
	win.start = time.Now()
	recs := drive(uint64(len(warm))+1, seconds)
	win.end = time.Now()
	win.cpu = cpuTime() - cpu0
	stopSampler()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	stats1 := m.totals()
	lay.mallocs = mallocs() - mallocs0
	lay.gamma = bvc.EngineGammaCounters().Sub(gamma0)
	lay.stats = bvc.ServiceStats{
		FramesOut:    stats1.FramesOut - stats0.FramesOut,
		BytesOut:     stats1.BytesOut - stats0.BytesOut,
		WriteRetries: stats1.WriteRetries - stats0.WriteRetries,
		WriteDrops:   stats1.WriteDrops - stats0.WriteDrops,
		Reconnects:   stats1.Reconnects - stats0.Reconnects,
	}
	// The heap is what the mesh holds for the instances still lingering, so
	// it is reported per such instance: throughput, which sets how many
	// linger on the closed loop, then does not move it.
	win.heap = liveHeapAfterGC()
	all := append(warm, recs...)
	for _, rec := range all {
		if win.end.Sub(rec.decided) < lingerTimeout {
			win.held++
		}
	}

	// Verification is post hoc so it costs the window no CPU. Warm-up
	// instances are checked too: correctness does not get a warm-up.
	for _, rec := range all {
		err := rec.err
		if err == nil {
			err = checkInstance(rec.inputs, rec.decisions)
		}
		if err != nil {
			win.fail(fmt.Errorf("instance %d: %w", rec.id, err))
		}
	}
	win.ops, win.checked = len(recs), len(all)
	for _, rec := range recs {
		win.opMs = append(win.opMs, ms(rec.decided.Sub(rec.due)))
		win.doneAt = append(win.doneAt, rec.decided)
		lay.genLagMs = append(lay.genLagMs, ms(rec.issued.Sub(rec.due)))
	}
	lay.decideP99Ms, lay.measuredInst = percentile(sortedCopy(win.opMs), 0.99), len(recs)
	for p, s := range m.svcs {
		if s != nil && s.Err() != nil {
			win.fail(fmt.Errorf("process %d: background transport error: %w", p, s.Err()))
		}
	}

	m.Close()
	if err := m.listenersClosed(); err != nil {
		return nil, nil, err
	}
	if err := goroutinesBack(baseline); err != nil {
		return nil, nil, err
	}
	return win, lay, nil
}

// sampleQueues polls the mesh's outbox and pending gauges every 5 ms until
// the returned stop function is called.
func (lay *liveLayer) sampleQueues(m *mesh) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t := m.totals()
				lay.outboxMax = max(lay.outboxMax, t.QueueDepth)
				lay.pendingMax = max(lay.pendingMax, t.PendingFrames)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// goroutinesBack waits for the goroutine count to return to baseline: a
// workload that leaves one behind has not shut its mesh down.
func goroutinesBack(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines after shutdown, %d before the run:\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
