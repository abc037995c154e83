// Command bvcload load-tests the multi-tenant live consensus service: it
// builds an n-process service mesh over loopback TCP, drives a target
// sustained rate of concurrent consensus instances through it open-loop,
// and reports decision latency percentiles, achieved throughput, and the
// service's transport counters.
//
// Usage:
//
//	bvcload                          # 5-process mesh, 250 inst/s for 2s
//	bvcload -rate 500 -duration 5s   # heavier sustained load
//	bvcload -minrate 200             # fail unless ≥200 inst/s achieved
//	bvcload -chaos scenario.json     # replay a fault timeline under load
//
// Every instance's decision is checked for hull-containment validity (the
// paper's validity condition) on every process, and at -rounds 0 (the
// analytic horizon) every pair of an instance's decisions for ε-agreement;
// the default -rounds 4 is a contraction demo that does not reach ε. After
// the final drain every process must have Proposed = Decided + TimedOut +
// Failed and, without -chaos, no read error and no parked frame
// dropped or left over. Any error, violation, or missed -minrate makes the exit status
// nonzero — the CI live-smoke gate.
//
// -chaos loads an internal/chaos scenario and replays its deterministic
// fault timeline (latency, loss, corruption, partitions, crash/restart,
// membership replacement) against the mesh while the load runs, for
// -duration or the scenario's horizon (its duration or last event),
// whichever is longer. The gate then proves the service decides every
// surviving instance with zero validity violations under that fault
// schedule. Crashed processes sit instances out (the survivors stay
// ≥ n−f for ≤ f concurrent crashes) and results lost to a scheduled
// crash are counted separately, not as errors. A "replace" event
// retires a process permanently and admits a successor under the next
// membership epoch: the survivors are Reconfigured, the successor dials
// in under the new epoch, and load keeps flowing across the flip.
// cmd/bvcload/testdata/ holds the committed scenarios CI replays.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/geometry"
	"repro/internal/hull"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bvcload:", err)
		os.Exit(1)
	}
}

// loadConfig collects the parsed flags.
type loadConfig struct {
	n, f, d   int
	epsilon   float64
	rounds    int
	rate      float64
	duration  time.Duration
	instances int
	seed      int64
	timeout   time.Duration
	minRate   float64
	warmup    int
	outbox    int
	chaosPath string
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bvcload", flag.ContinueOnError)
	cfg := loadConfig{}
	fs.IntVar(&cfg.n, "n", 5, "process count (n ≥ (d+2)f+1)")
	fs.IntVar(&cfg.f, "f", 1, "Byzantine tolerance parameter f")
	fs.IntVar(&cfg.d, "d", 2, "vector dimension")
	fs.Float64Var(&cfg.epsilon, "epsilon", 0.05, "ε of ε-agreement")
	fs.IntVar(&cfg.rounds, "rounds", 4, "round horizon per instance: 0 = the analytic bound, which reaches ε-agreement (checked); the default 4 is a contraction demo that does not reach ε (hull validity holds from round 1)")
	fs.Float64Var(&cfg.rate, "rate", 250, "target sustained instances per second (open loop)")
	fs.DurationVar(&cfg.duration, "duration", 2*time.Second, "load duration (with -rate fixes the instance count); -chaos runs at least its scenario's horizon")
	fs.IntVar(&cfg.instances, "instances", 0, "exact instance count (overrides rate×duration when > 0)")
	fs.Int64Var(&cfg.seed, "seed", 1, "master random seed for inputs")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-instance timeout")
	fs.Float64Var(&cfg.minRate, "minrate", 0, "fail when achieved instances/sec is below this (0 = no gate)")
	fs.IntVar(&cfg.warmup, "warmup", -1, "warmup instances excluded from measurement (-1 = max(10, 5% of count); cold-start tails otherwise dominate p99)")
	fs.IntVar(&cfg.outbox, "outbox", 0, "per-peer outbox depth in frames (0 = service default); partitions queue traffic here, so size it as rate x frames-per-instance x longest partition")
	fs.StringVar(&cfg.chaosPath, "chaos", "", "chaos scenario JSON (internal/chaos): replay its fault timeline under load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := drive(cfg)
	if err != nil {
		return err
	}
	res.summarize(w, cfg)
	return res.gate(cfg)
}

// loadResult aggregates one load run.
type loadResult struct {
	instances int
	warmup    int           // unmeasured warmup instances run before the clock started
	elapsed   time.Duration // first measured propose to last result
	latencies []time.Duration

	errs       []error // capped sample of instance errors
	errCount   int
	invalid    int // decisions outside their instance's input hull
	disagree   int // pairs of an instance's decisions more than ε apart (-rounds 0 only)
	checkAgree bool

	stats      []bvc.ServiceStats // per process, at quiesce
	background []error            // non-nil Service.Err() values

	chaosMode    bool
	crashAborted int            // per-process results lost to a scheduled crash
	chaos        chaos.Counters // mesh-wide injected-fault totals
}

func (r *loadResult) achievedRate() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.instances) / r.elapsed.Seconds()
}

// percentile is the nearest-rank q-quantile of the sorted latencies: the
// ⌈q·n⌉-th smallest. The tolerance keeps a q·n that is an integer, such as
// 0.07·100, from rounding up a rank through its floating-point error.
func (r *loadResult) percentile(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(r.latencies))-1e-9)) - 1
	return r.latencies[min(max(idx, 0), len(r.latencies)-1)]
}

// gate returns the run's verdict: any instance error, background transport
// error, validity violation, or missed rate target is a failure. Under
// -chaos, results lost to a scheduled crash are expected and excluded, and
// read errors are injected damage; on a clean network a read error means
// the wire path itself is broken, so it fails the run. So does
// a parked frame dropped or left over there: every process proposes every
// id, so a drop means a correct peer ran over its parking budget.
func (r *loadResult) gate(cfg loadConfig) error {
	if r.errCount > 0 {
		return fmt.Errorf("%d instance errors (first: %v)", r.errCount, r.errs[0])
	}
	if len(r.background) > 0 {
		return fmt.Errorf("background transport errors: %v", r.background[0])
	}
	if r.invalid > 0 {
		return fmt.Errorf("%d decisions violated hull-containment validity", r.invalid)
	}
	if r.disagree > 0 {
		return fmt.Errorf("%d decision pairs violated ε-agreement (ε = %g)", r.disagree, cfg.epsilon)
	}
	for i, s := range r.stats {
		if s.Proposed != s.Decided+s.TimedOut+s.Failed {
			return fmt.Errorf("process %d after drain: Proposed %d != Decided %d + TimedOut %d + Failed %d",
				i, s.Proposed, s.Decided, s.TimedOut, s.Failed)
		}
	}
	if !r.chaosMode {
		for i, s := range r.stats {
			if s.ReadErrors > 0 {
				return fmt.Errorf("process %d: %d read errors on a fault-free network", i, s.ReadErrors)
			}
			if s.PendingDropped > 0 || s.PendingFrames > 0 {
				return fmt.Errorf("process %d: %d parked frames dropped, %d left parked on a fault-free network", i, s.PendingDropped, s.PendingFrames)
			}
		}
	}
	if cfg.minRate > 0 && r.achievedRate() < cfg.minRate {
		return fmt.Errorf("achieved %.1f inst/s, below -minrate %.1f", r.achievedRate(), cfg.minRate)
	}
	return nil
}

// establishTimeout bounds each process's wait for its mesh: Establish
// waits as long as its ctx allows, and a scenario that leaves a link dark
// must fail the run rather than hang it.
const establishTimeout = 10 * time.Second

// establish connects s to the mesh at addrs within establishTimeout.
func establish(s *bvc.Service, addrs []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), establishTimeout)
	defer cancel()
	return s.Establish(ctx, addrs)
}

// loadDuration is how long the load runs: -duration, stretched to a chaos
// scenario's own horizon so that every scheduled event fires under load.
func loadDuration(d time.Duration, scn *chaos.Scenario) time.Duration {
	if scn != nil && scn.Horizon() > d {
		return scn.Horizon()
	}
	return d
}

// drive runs the load: build the mesh, pace proposals open-loop, collect
// and validate every result, then drain and close the mesh.
func drive(cfg loadConfig) (*loadResult, error) {
	var scn *chaos.Scenario
	var injs []*chaos.Injector
	if cfg.chaosPath != "" {
		var err error
		scn, err = chaos.Load(cfg.chaosPath)
		if err != nil {
			return nil, err
		}
		if err := scn.Validate(cfg.n); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", scn.Name, err)
		}
		injs = make([]*chaos.Injector, cfg.n)
		for i := range injs {
			if injs[i], err = chaos.NewInjector(scn, cfg.n, i); err != nil {
				return nil, err
			}
		}
		defer func() {
			for _, inj := range injs {
				inj.Stop()
			}
		}()
	}
	cfg.duration = loadDuration(cfg.duration, scn)
	total := cfg.instances
	if total <= 0 {
		total = int(cfg.rate * cfg.duration.Seconds())
		if total < 1 {
			total = 1
		}
	}

	ccfg := bvc.Config{
		N: cfg.n, F: cfg.f, D: cfg.d,
		Epsilon:   cfg.epsilon,
		Lo:        []float64{0},
		Hi:        []float64{1},
		MaxRounds: cfg.rounds,
	}
	svcs := make([]*bvc.Service, cfg.n)
	crashed := make([]bool, cfg.n)
	var crashMu sync.Mutex // guards svcs and crashed once the crash driver runs
	addrs := make([]string, cfg.n)
	newProc := func(i int, epoch uint64, tmpl []string) (*bvc.Service, error) {
		scfg := bvc.ServiceConfig{
			Config:          ccfg,
			ID:              i,
			Epoch:           epoch,
			Addrs:           tmpl,
			OutboxDepth:     cfg.outbox,
			InstanceTimeout: cfg.timeout,
			Seed:            cfg.seed + int64(i),
		}
		if injs != nil {
			scfg.Transport = injs[i]
		}
		return bvc.NewService(scfg)
	}
	defer func() {
		crashMu.Lock()
		defer crashMu.Unlock()
		for _, s := range svcs {
			if s != nil {
				_ = s.Close()
			}
		}
	}()
	for i := range svcs {
		tmpl := make([]string, cfg.n)
		for j := range tmpl {
			tmpl[j] = "127.0.0.1:0"
		}
		s, err := newProc(i, 0, tmpl)
		if err != nil {
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
		svcs[i] = s
		addrs[i] = s.Addr()
	}
	var wg sync.WaitGroup
	estErrs := make([]error, cfg.n)
	for i, s := range svcs {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			estErrs[i] = establish(s, addrs)
		}()
	}
	wg.Wait()
	for i, err := range estErrs {
		if err != nil {
			return nil, fmt.Errorf("establish process %d: %w", i, err)
		}
	}

	// Proc events: the scenario's crash/restart/replace schedule.
	var procEvents []chaos.Event
	if scn != nil {
		procEvents = scn.ProcEvents()
	}
	chaosMode := scn != nil

	// The fault clock starts only after a clean establish, so the scenario
	// timeline is measured from a whole mesh.
	t0 := time.Now()
	eventsDone := make(chan struct{})
	var eventsErr error
	if scn != nil {
		for _, inj := range injs {
			inj.Start(t0)
		}
	}
	// liveEpoch is the highest epoch among the running processes other
	// than p: the membership a restart of p rejoins and a replace of p
	// advances. Only the events goroutine below changes membership, so
	// the value holds until it acts on it.
	liveEpoch := func(p int) uint64 {
		crashMu.Lock()
		defer crashMu.Unlock()
		var epoch uint64
		for i, s := range svcs {
			if i != p && !crashed[i] && s.Epoch() > epoch {
				epoch = s.Epoch()
			}
		}
		return epoch
	}
	// admit starts process p at membership (epoch, tmpl), retrying while
	// a fixed address lingers, records its address, runs join (when set)
	// before p counts as alive, and establishes p against the mesh.
	admit := func(p int, epoch uint64, tmpl []string, join func() error) error {
		var s *bvc.Service
		var err error
		for attempt := 0; attempt < 40; attempt++ {
			if s, err = newProc(p, epoch, tmpl); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond) // address may linger briefly
		}
		if err != nil {
			return fmt.Errorf("start at epoch %d: %w", epoch, err)
		}
		addrs[p] = s.Addr()
		if join != nil {
			if err := join(); err != nil {
				_ = s.Close()
				return err
			}
		}
		// Alive from here: proposals may include the process while
		// Establish completes — its frames queue in the outboxes and
		// flush as each link comes up.
		crashMu.Lock()
		svcs[p] = s
		crashed[p] = false
		crashMu.Unlock()
		if err := establish(s, addrs); err != nil {
			return fmt.Errorf("establish at epoch %d: %w", epoch, err)
		}
		return nil
	}
	if len(procEvents) > 0 {
		go func() {
			defer close(eventsDone)
			// Crash/restart/replace events are the driver's half of the
			// scenario: a crash closes the process abruptly, a restart
			// rebuilds it on the same address at the survivors' epoch
			// and re-establishes against the live mesh, and a replace
			// retires it for good and admits a successor at the next
			// epoch.
			for _, ev := range procEvents {
				time.Sleep(time.Until(t0.Add(ev.At.D())))
				switch ev.Action {
				case chaos.ActionCrash:
					crashMu.Lock()
					s := svcs[ev.Proc]
					crashed[ev.Proc] = true
					crashMu.Unlock()
					_ = s.Close()
				case chaos.ActionRestart:
					if err := admit(ev.Proc, liveEpoch(ev.Proc), addrs, nil); err != nil {
						eventsErr = fmt.Errorf("restart process %d: %w", ev.Proc, err)
						return
					}
				case chaos.ActionReplace:
					// Retire the process permanently, then admit the
					// successor: it listens first (so survivors can dial
					// it), every running survivor is Reconfigured to
					// epoch+1 — membership moves only by the operator's
					// call, never by a peer's word — and the successor
					// establishes against the new membership.
					crashMu.Lock()
					old := svcs[ev.Proc]
					wasUp := !crashed[ev.Proc]
					crashed[ev.Proc] = true
					crashMu.Unlock()
					if wasUp {
						_ = old.Close()
					}
					epoch := liveEpoch(ev.Proc) + 1
					tmpl := append([]string(nil), addrs...)
					tmpl[ev.Proc] = ev.Addr
					err := admit(ev.Proc, epoch, tmpl, func() error {
						next := bvc.Membership{Epoch: epoch, Addrs: addrs}
						crashMu.Lock()
						live := append([]*bvc.Service(nil), svcs...)
						dead := append([]bool(nil), crashed...)
						crashMu.Unlock()
						for i, s := range live {
							if i == ev.Proc || dead[i] {
								continue
							}
							if err := s.Reconfigure(next); err != nil {
								return fmt.Errorf("reconfigure process %d to epoch %d: %w", i, epoch, err)
							}
						}
						return nil
					})
					if err != nil {
						eventsErr = fmt.Errorf("replace process %d: %w", ev.Proc, err)
						return
					}
				}
			}
		}()
	} else {
		close(eventsDone)
	}

	warm := cfg.warmup
	if warm < 0 {
		warm = total / 20
		if warm < 10 {
			warm = 10
		}
	}
	res := &loadResult{instances: total, warmup: warm, chaosMode: chaosMode, checkAgree: cfg.rounds == 0}
	var (
		mu        sync.Mutex
		collected sync.WaitGroup
	)
	rng := rand.New(rand.NewSource(cfg.seed))
	interval := time.Duration(float64(time.Second) / cfg.rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	// Warmup instances (ids 1..warm) run at the same pace but are excluded
	// from the latency sample and the throughput clock: they absorb the
	// cold-start transient (empty frame pools, growing heap) that would
	// otherwise dominate p99. Their errors still count — correctness does
	// not get a warmup.
	var start time.Time
	grand := warm + total
	for id := uint64(1); id <= uint64(grand); id++ {
		if id > 1 {
			<-ticker.C // open-loop pacing: never waits for completions
		}
		measured := id > uint64(warm)
		if id == uint64(warm)+1 {
			start = time.Now()
		}
		// Crashed processes sit the instance out: the survivors are still
		// ≥ n−f for ≤ f concurrently crashed, so the instance decides, and
		// validity is checked against the inputs actually proposed.
		crashMu.Lock()
		targets := make([]*bvc.Service, cfg.n)
		for i, s := range svcs {
			if !crashed[i] {
				targets[i] = s
			}
		}
		crashMu.Unlock()
		inputs := make([]geometry.Vector, 0, cfg.n)
		chans := make([]<-chan bvc.ServiceResult, 0, cfg.n)
		for i, s := range targets {
			v := make(geometry.Vector, cfg.d)
			for j := range v {
				v[j] = rng.Float64()
			}
			if s == nil {
				continue
			}
			ch, err := s.Propose(id, bvc.Vector(v))
			if err != nil {
				if chaosMode && errors.Is(err, bvc.ErrServiceClosed) {
					// Lost the race with a scheduled crash.
					mu.Lock()
					res.crashAborted++
					mu.Unlock()
					continue
				}
				return nil, fmt.Errorf("propose instance %d on process %d: %w", id, i, err)
			}
			inputs = append(inputs, v)
			chans = append(chans, ch)
		}
		collected.Add(1)
		go func(id uint64, measured bool, inputs []geometry.Vector, chans []<-chan bvc.ServiceResult) {
			defer collected.Done()
			var worst time.Duration
			var failure error
			var decisions [][]float64
			bad := 0
			for _, ch := range chans {
				r := <-ch
				if r.Err != nil {
					if chaosMode && errors.Is(r.Err, bvc.ErrServiceClosed) {
						// In flight on a process when its crash fired.
						mu.Lock()
						res.crashAborted++
						mu.Unlock()
						continue
					}
					failure = r.Err
					continue
				}
				if r.Elapsed > worst {
					worst = r.Elapsed
				}
				decisions = append(decisions, r.Decision)
				in, err := hull.Contains(inputs, geometry.Vector(r.Decision), 1e-9)
				if err != nil {
					failure = err
				} else if !in {
					bad++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if failure != nil {
				res.errCount++
				if len(res.errs) < 8 {
					res.errs = append(res.errs, fmt.Errorf("instance %d: %w", id, failure))
				}
			} else if measured {
				res.latencies = append(res.latencies, worst)
			}
			res.invalid += bad
			if res.checkAgree {
				res.disagree += agreementViolations(decisions, cfg.epsilon)
			}
		}(id, measured, inputs, chans)
	}
	collected.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })

	// Let the scenario's crash/restart schedule finish (every committed
	// scenario restarts what it crashed), then total the injected faults.
	<-eventsDone
	if eventsErr != nil {
		return nil, eventsErr
	}
	for _, inj := range injs {
		res.chaos.Add(inj.Counters())
	}

	// Graceful wind-down: drain every process (all instances already
	// finished, so this is a goodbye + bookkeeping pass), then Close via
	// the deferred cleanup.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	crashMu.Lock()
	final := append([]*bvc.Service(nil), svcs...)
	crashMu.Unlock()
	for i, s := range final {
		if err := s.Drain(drainCtx); err != nil {
			return nil, fmt.Errorf("drain process %d: %w", i, err)
		}
		if err := s.Err(); err != nil {
			res.background = append(res.background, fmt.Errorf("process %d: %w", i, err))
		}
		res.stats = append(res.stats, s.Stats())
	}
	return res, nil
}

// agreementViolations counts the pairs of decisions that differ by more
// than eps in some coordinate: the paper's ε-agreement, which correct
// processes reach at the analytic round horizon.
func agreementViolations(decisions [][]float64, eps float64) int {
	bad := 0
	for i, a := range decisions {
		for _, b := range decisions[i+1:] {
			for k := range a {
				if math.Abs(a[k]-b[k]) > eps {
					bad++
					break
				}
			}
		}
	}
	return bad
}

// summarize renders the human-readable report.
func (r *loadResult) summarize(w io.Writer, cfg loadConfig) {
	fmt.Fprintf(w, "bvcload: n=%d f=%d d=%d rounds=%d\n", cfg.n, cfg.f, cfg.d, cfg.rounds)
	fmt.Fprintf(w, "instances  %d (+%d warmup) in %v (target %.0f/s, achieved %.1f/s)\n",
		r.instances, r.warmup, r.elapsed.Round(time.Millisecond), cfg.rate, r.achievedRate())
	fmt.Fprintf(w, "latency    p50 %v  p99 %v  max %v\n",
		r.percentile(0.50).Round(time.Microsecond), r.percentile(0.99).Round(time.Microsecond), r.percentile(1.0).Round(time.Microsecond))
	fmt.Fprintf(w, "errors     %d instance, %d background, %d validity violations",
		r.errCount, len(r.background), r.invalid)
	if r.checkAgree {
		fmt.Fprintf(w, ", %d ε-agreement violations", r.disagree)
	}
	fmt.Fprintln(w)
	var st bvc.ServiceStats
	for _, s := range r.stats {
		st.Decided += s.Decided
		st.Quiesced += s.Quiesced
		st.Lingering += s.Lingering
		st.FramesIn += s.FramesIn
		st.FramesOut += s.FramesOut
		st.BytesOut += s.BytesOut
		st.Writes += s.Writes
		st.Reads += s.Reads
		st.WriteDrops += s.WriteDrops
		st.WriteRetries += s.WriteRetries
		st.PendingDropped += s.PendingDropped
		st.Reconnects += s.Reconnects
		st.ReadErrors += s.ReadErrors
		st.DialFailures += s.DialFailures
		st.Reconfigures += s.Reconfigures
		st.StaleEpochRejects += s.StaleEpochRejects
		if s.Epoch > st.Epoch {
			st.Epoch = s.Epoch
		}
	}
	fmt.Fprintf(w, "lifecycle  %d decided, %d tombstoned on quiescence, %d still lingering\n",
		st.Decided, st.Quiesced, st.Lingering)
	fmt.Fprintf(w, "transport  %d frames out, %d in, %d bytes out, %d write drops, %d write retries, %d pending drops, %d reconnects\n",
		st.FramesOut, st.FramesIn, st.BytesOut, st.WriteDrops, st.WriteRetries, st.PendingDropped, st.Reconnects)
	if st.Decided > 0 {
		// Mesh-wide syscalls over the instances each process decided.
		per := float64(len(r.stats)) / float64(st.Decided)
		fmt.Fprintf(w, "syscalls   %.1f writes, %.1f reads per decided instance\n",
			float64(st.Writes)*per, float64(st.Reads)*per)
	}
	if st.Reconfigures > 0 {
		fmt.Fprintf(w, "epochs     at epoch %d, %d reconfigures, %d stale-epoch rejects\n",
			st.Epoch, st.Reconfigures, st.StaleEpochRejects)
	}
	if r.chaosMode {
		fmt.Fprintf(w, "degraded   %d read errors, %d dial failures, %d crash-aborted results\n",
			st.ReadErrors, st.DialFailures, r.crashAborted)
		c := r.chaos
		fmt.Fprintf(w, "chaos      %d frames seen: %d delayed, %d dropped, %d dup, %d reordered, %d corrupted; %d conns killed, %d dials refused\n",
			c.Frames, c.Delayed, c.Dropped, c.Duplicated, c.Reordered, c.Corrupted, c.KilledConns, c.RefusedDials)
	}
}
