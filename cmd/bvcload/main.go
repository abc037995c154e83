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
//	bvcload -policy shed             # shed (drop+count) slow peers
//	bvcload -minrate 200             # fail unless ≥200 inst/s achieved
//	bvcload -chaos scenario.json     # replay a fault timeline under load
//	bvcload -churn 3                 # replace 3 random processes mid-load
//
// Every instance's decision is checked for hull-containment validity (the
// paper's validity condition) on every process; any error, validity
// violation, or missed -minrate makes the exit status nonzero — the CI
// live-smoke gate.
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
//
// -churn N is the scenario-free soak form of the same thing: N seeded
// replacements spread evenly across the run, each retiring a random
// process and admitting its successor at epoch+1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	policy    string
	shards    int
	seed      int64
	timeout   time.Duration
	minRate   float64
	warmup    int
	outbox    int
	chaosPath string
	churn     int
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bvcload", flag.ContinueOnError)
	cfg := loadConfig{}
	fs.IntVar(&cfg.n, "n", 5, "process count (n ≥ (d+2)f+1)")
	fs.IntVar(&cfg.f, "f", 1, "Byzantine tolerance parameter f")
	fs.IntVar(&cfg.d, "d", 2, "vector dimension")
	fs.Float64Var(&cfg.epsilon, "epsilon", 0.05, "ε of ε-agreement")
	fs.IntVar(&cfg.rounds, "rounds", 4, "fixed round horizon per instance (0 = analytic bound; hull validity holds from round 1)")
	fs.Float64Var(&cfg.rate, "rate", 250, "target sustained instances per second (open loop)")
	fs.DurationVar(&cfg.duration, "duration", 2*time.Second, "load duration (with -rate fixes the instance count); -chaos runs at least its scenario's horizon")
	fs.IntVar(&cfg.instances, "instances", 0, "exact instance count (overrides rate×duration when > 0)")
	fs.StringVar(&cfg.policy, "policy", "block", "slow-peer policy: block or shed")
	fs.IntVar(&cfg.shards, "shards", 0, "instance shards per process (0 = service default)")
	fs.Int64Var(&cfg.seed, "seed", 1, "master random seed for inputs")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-instance timeout")
	fs.Float64Var(&cfg.minRate, "minrate", 0, "fail when achieved instances/sec is below this (0 = no gate)")
	fs.IntVar(&cfg.warmup, "warmup", -1, "warmup instances excluded from measurement (-1 = max(10, 5% of count); cold-start tails otherwise dominate p99)")
	fs.IntVar(&cfg.outbox, "outbox", 0, "per-peer outbox depth in frames (0 = service default); partitions queue traffic here, so size it as rate x frames-per-instance x longest partition")
	fs.StringVar(&cfg.chaosPath, "chaos", "", "chaos scenario JSON (internal/chaos): replay its fault timeline under load")
	fs.IntVar(&cfg.churn, "churn", 0, "membership churn: replace this many seeded-random processes mid-load, each at epoch+1")
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

	errs     []error // capped sample of instance errors
	errCount int
	invalid  int // decisions outside their instance's input hull

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

func (r *loadResult) percentile(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	idx := int(q*float64(len(r.latencies))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.latencies) {
		idx = len(r.latencies) - 1
	}
	return r.latencies[idx]
}

// gate returns the run's verdict: any instance error, background transport
// error, validity violation, or missed rate target is a failure. Under
// -chaos, results lost to a scheduled crash are expected and excluded, and
// read errors are injected damage; on a clean network a read error means
// the wire path itself is broken, so it fails the run.
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
	if !r.chaosMode {
		var readErrs int64
		for _, s := range r.stats {
			readErrs += s.ReadErrors
		}
		if readErrs > 0 {
			return fmt.Errorf("%d read errors on a fault-free network", readErrs)
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
	policy := bvc.BlockSlowPeer
	switch cfg.policy {
	case "block":
	case "shed":
		policy = bvc.ShedSlowPeer
	default:
		return nil, fmt.Errorf("unknown -policy %q (want block or shed)", cfg.policy)
	}

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
			Shards:          cfg.shards,
			SlowPeer:        policy,
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

	// Proc events: the scenario's crash/restart/replace schedule merged
	// with the -churn synthesis — seeded replacements spread evenly
	// across the run, each admitting an ephemeral-address successor under
	// the next membership epoch.
	var procEvents []chaos.Event
	if scn != nil {
		procEvents = scn.ProcEvents()
	}
	if cfg.churn > 0 {
		churnRng := rand.New(rand.NewSource(cfg.seed + 0x5eed))
		for i := 0; i < cfg.churn; i++ {
			at := time.Duration(float64(cfg.duration) * float64(i+1) / float64(cfg.churn+1))
			procEvents = append(procEvents, chaos.Event{
				At: chaos.Dur(at), Action: chaos.ActionReplace,
				Proc: churnRng.Intn(cfg.n), Addr: "127.0.0.1:0",
			})
		}
		sort.SliceStable(procEvents, func(i, j int) bool { return procEvents[i].At < procEvents[j].At })
	}
	chaosMode := scn != nil || cfg.churn > 0

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
	if len(procEvents) > 0 {
		go func() {
			defer close(eventsDone)
			// Crash/restart/replace events are the driver's half of the
			// scenario: a crash closes the process abruptly, a restart
			// rebuilds it on the same address and re-establishes against
			// the live mesh, and a replace retires it for good and admits
			// a successor at the next epoch.
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
					var s *bvc.Service
					var err error
					for attempt := 0; attempt < 40; attempt++ {
						if s, err = newProc(ev.Proc, 0, addrs); err == nil {
							break
						}
						time.Sleep(50 * time.Millisecond) // address may linger briefly
					}
					if err != nil {
						eventsErr = fmt.Errorf("restart process %d: %w", ev.Proc, err)
						return
					}
					// Alive again from here: proposals may include the
					// process while Establish completes — its frames queue
					// in the outboxes and flush as each link comes up.
					crashMu.Lock()
					svcs[ev.Proc] = s
					crashed[ev.Proc] = false
					crashMu.Unlock()
					if err := establish(s, addrs); err != nil {
						eventsErr = fmt.Errorf("re-establish process %d: %w", ev.Proc, err)
						return
					}
				case chaos.ActionReplace:
					// Retire the process permanently, then admit the
					// successor: it listens first (so survivors can dial
					// it), every survivor is Reconfigured to epoch+1 — one
					// call would do, the EpochAnnounce gossip floods the
					// rest, but direct calls make the replay deterministic
					// — and the successor establishes against the new
					// membership.
					crashMu.Lock()
					old := svcs[ev.Proc]
					wasUp := !crashed[ev.Proc]
					crashed[ev.Proc] = true
					crashMu.Unlock()
					if wasUp {
						_ = old.Close()
					}
					var epoch uint64
					crashMu.Lock()
					for i, s := range svcs {
						if i != ev.Proc && !crashed[i] && s.Epoch() > epoch {
							epoch = s.Epoch()
						}
					}
					crashMu.Unlock()
					epoch++
					tmpl := append([]string(nil), addrs...)
					tmpl[ev.Proc] = ev.Addr
					var repl *bvc.Service
					var err error
					for attempt := 0; attempt < 40; attempt++ {
						if repl, err = newProc(ev.Proc, epoch, tmpl); err == nil {
							break
						}
						time.Sleep(50 * time.Millisecond) // fixed addr may linger briefly
					}
					if err != nil {
						eventsErr = fmt.Errorf("replace process %d: %w", ev.Proc, err)
						return
					}
					addrs[ev.Proc] = repl.Addr()
					next := bvc.Membership{Epoch: epoch, Addrs: append([]string(nil), addrs...)}
					crashMu.Lock()
					live := append([]*bvc.Service(nil), svcs...)
					dead := append([]bool(nil), crashed...)
					crashMu.Unlock()
					for i, s := range live {
						if i == ev.Proc || dead[i] {
							continue
						}
						if err := s.Reconfigure(next); err != nil && !errors.Is(err, bvc.ErrStaleEpoch) {
							eventsErr = fmt.Errorf("reconfigure process %d to epoch %d: %w", i, epoch, err)
							return
						}
					}
					crashMu.Lock()
					svcs[ev.Proc] = repl
					crashed[ev.Proc] = false
					crashMu.Unlock()
					if err := establish(repl, next.Addrs); err != nil {
						eventsErr = fmt.Errorf("establish replacement %d at epoch %d: %w", ev.Proc, epoch, err)
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
	res := &loadResult{instances: total, warmup: warm, chaosMode: chaosMode}
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

// summarize renders the human-readable report.
func (r *loadResult) summarize(w io.Writer, cfg loadConfig) {
	fmt.Fprintf(w, "bvcload: n=%d f=%d d=%d rounds=%d policy=%s\n", cfg.n, cfg.f, cfg.d, cfg.rounds, cfg.policy)
	fmt.Fprintf(w, "instances  %d (+%d warmup) in %v (target %.0f/s, achieved %.1f/s)\n",
		r.instances, r.warmup, r.elapsed.Round(time.Millisecond), cfg.rate, r.achievedRate())
	fmt.Fprintf(w, "latency    p50 %v  p99 %v  max %v\n",
		r.percentile(0.50).Round(time.Microsecond), r.percentile(0.99).Round(time.Microsecond), r.percentile(1.0).Round(time.Microsecond))
	fmt.Fprintf(w, "errors     %d instance, %d background, %d validity violations\n",
		r.errCount, len(r.background), r.invalid)
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
		st.SlowPeerSheds += s.SlowPeerSheds
		st.WriteDrops += s.WriteDrops
		st.WriteRetries += s.WriteRetries
		st.PendingDropped += s.PendingDropped
		st.Reconnects += s.Reconnects
		st.ReadErrors += s.ReadErrors
		st.DialFailures += s.DialFailures
		st.LingerExtensions += s.LingerExtensions
		st.Reconfigures += s.Reconfigures
		st.StaleEpochRejects += s.StaleEpochRejects
		st.RetiredEpochs += s.RetiredEpochs
		if s.Epoch > st.Epoch {
			st.Epoch = s.Epoch
		}
	}
	fmt.Fprintf(w, "lifecycle  %d decided, %d tombstoned on quiescence, %d still lingering\n",
		st.Decided, st.Quiesced, st.Lingering)
	fmt.Fprintf(w, "transport  %d frames out, %d in, %d bytes out, %d sheds, %d write drops, %d write retries, %d pending drops, %d reconnects\n",
		st.FramesOut, st.FramesIn, st.BytesOut, st.SlowPeerSheds, st.WriteDrops, st.WriteRetries, st.PendingDropped, st.Reconnects)
	if st.Decided > 0 {
		// Mesh-wide syscalls over the instances each process decided.
		per := float64(len(r.stats)) / float64(st.Decided)
		fmt.Fprintf(w, "syscalls   %.1f writes, %.1f reads per decided instance\n",
			float64(st.Writes)*per, float64(st.Reads)*per)
	}
	if st.Reconfigures > 0 {
		fmt.Fprintf(w, "epochs     at epoch %d, %d reconfigures, %d stale-epoch rejects, %d retired link sets\n",
			st.Epoch, st.Reconfigures, st.StaleEpochRejects, st.RetiredEpochs)
	}
	if r.chaosMode {
		fmt.Fprintf(w, "degraded   %d read errors, %d dial failures, %d linger extensions, %d crash-aborted results\n",
			st.ReadErrors, st.DialFailures, st.LingerExtensions, r.crashAborted)
		c := r.chaos
		fmt.Fprintf(w, "chaos      %d frames seen: %d delayed, %d dropped, %d dup, %d reordered, %d corrupted, %d blackholed; %d conns killed, %d dials refused\n",
			c.Frames, c.Delayed, c.Dropped, c.Duplicated, c.Reordered, c.Corrupted, c.Blackholed, c.KilledConns, c.RefusedDials)
	}
}
