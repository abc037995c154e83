package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/combin"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/lp"
	"repro/internal/safearea"
	"repro/internal/sim"
	"repro/internal/tverberg"
	"repro/internal/wire"
)

// perLayer are the metrics of single layers, named after the modules. They
// have no bound: they say where an end-to-end change landed. Kernel
// timings (lp, hull, tverberg, safearea, broadcast, aad, wire, sim.event)
// are measured around calls into each layer's exported functions on inputs
// from the run's seed and do not depend on the workload; core.gamma_*,
// service.*, sim.messages_per_run and bench.* come from the workload run
// itself. README.md says which end-to-end metric each should move.
var perLayer = []metric{
	{"lp.cold_solve_us", "us", "lower", 0},
	{"lp.warm_solve_us", "us", "lower", 0},
	{"lp.hot_resolve_us", "us", "lower", 0},
	{"lp.allocs_per_solve", "count", "lower", 0},
	{"hull.contains_us", "us", "lower", 0},
	{"tverberg.radon_ns", "ns", "lower", 0},
	{"tverberg.lift_us", "us", "lower", 0},
	{"tverberg.lift_fail_frac", "frac", "lower", 0},
	{"safearea.point_radon_us", "us", "lower", 0},
	{"safearea.point_lift_us", "us", "lower", 0},
	{"safearea.point_lp_us", "us", "lower", 0},
	{"safearea.incremental_swap_us", "us", "lower", 0},
	{"core.gamma_solves_per_run", "count", "lower", 0},
	{"core.gamma_reuse_rate", "frac", "higher", 0},
	{"core.round_hits_per_run", "count", "higher", 0},
	{"core.node_step_us", "us", "lower", 0},
	{"core.node_busy_ms_per_instance", "ms", "lower", 0},
	{"broadcast.rbc_handle_ns", "ns", "lower", 0},
	{"broadcast.rbc_msgs_per_delivery", "count", "lower", 0},
	{"aad.handle_ns", "ns", "lower", 0},
	{"aad.round_us", "us", "lower", 0},
	{"aad.msgs_per_round", "count", "lower", 0},
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.bytes_per_frame", "B", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},
	{"service.frames_per_instance", "count", "lower", 0},
	{"service.bytes_per_instance", "B", "lower", 0},
	{"service.allocs_per_instance", "count", "lower", 0},
	{"service.write_retries", "count", "lower", 0},
	{"service.write_drops", "count", "lower", 0},
	{"service.reconnects", "count", "lower", 0},
	{"service.pending_frames_max", "count", "lower", 0},
	{"service.outbox_depth_max", "count", "lower", 0},
	{"service.establish_ms", "ms", "lower", 0},
	{"service.decide_p99_ms", "ms", "lower", 0},
	{"sim.messages_per_run", "count", "lower", 0},
	{"sim.event_ns", "ns", "lower", 0},
	{"bench.gen_lag_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.accounted_frac", "frac", "higher", 0},
}

// The geometry kernels run on the shape sim-rasync-f2 solves: candidate
// sets of n − f = 11 points in the plane, f = 2.
const (
	kernelN = 13
	kernelF = 2
	kernelD = 2
)

// layerValues assembles a traced run's per-layer metrics: what the
// workload run itself counted, the replay's spans, and the layer kernels.
func layerValues(ctx context.Context, w *workload, seed int64, seconds float64, win *window,
	ll *liveLayer, sl *simLayer, rec *recorder, traceOut string) (map[string]float64, error) {
	v := map[string]float64{}

	if sl != nil {
		// A sim workload has no mesh of its own; a one-second open-loop
		// probe of the live mesh fills the service rows so every traced
		// run reports every layer.
		var err error
		if _, ll, err = runLive(ctx, &workloads[0], seed, 1, true); err != nil {
			return nil, fmt.Errorf("service probe: %w", err)
		}
		inSpans, _ := rec.selfTimes()
		v["core.gamma_solves_per_run"] = sl.solvesPerRun
		v["core.gamma_reuse_rate"] = sl.reuseRate
		v["core.round_hits_per_run"] = sl.roundHitsPerRun
		v["sim.messages_per_run"] = sl.messagesPerRun
		v["bench.accounted_frac"] = float64(inSpans["sim.run"]) / float64(win.end.Sub(win.start))
	}
	inst := float64(ll.measuredInst)
	v["service.frames_per_instance"] = float64(ll.stats.FramesOut) / inst
	v["service.bytes_per_instance"] = float64(ll.stats.BytesOut) / inst
	v["service.allocs_per_instance"] = float64(ll.mallocs) / inst
	v["service.write_retries"] = float64(ll.stats.WriteRetries)
	v["service.write_drops"] = float64(ll.stats.WriteDrops)
	v["service.reconnects"] = float64(ll.stats.Reconnects)
	v["service.pending_frames_max"] = float64(ll.pendingMax)
	v["service.outbox_depth_max"] = float64(ll.outboxMax)
	v["service.establish_ms"] = ll.establishMs
	v["service.decide_p99_ms"] = ll.decideP99Ms
	v["bench.gen_lag_p99_ms"] = percentile(sortedCopy(ll.genLagMs), 0.99)
	if sl == nil {
		v["core.gamma_solves_per_run"] = float64(ll.gamma.Solves) / inst
		v["core.gamma_reuse_rate"] = ll.gamma.ReuseRate()
		v["core.round_hits_per_run"] = float64(ll.gamma.RoundHits) / inst
	}

	// Replay, untraced and traced, twice each and interleaved; the faster
	// pass of each kind is kept so one scheduling hiccup does not pose as
	// tracing overhead.
	var plain, traced replayStats
	for pass := range 2 {
		p, err := replay(w, seed, nil)
		if err != nil {
			return nil, err
		}
		passRec := rec
		if pass > 0 {
			passRec = newRecorder(len(rec.spans)) // only the first traced pass is kept
		}
		t, err := replay(w, seed, passRec)
		if err != nil {
			return nil, err
		}
		if pass == 0 || p.wall < plain.wall {
			plain = p
		}
		if pass == 0 || t.wall < traced.wall {
			traced = t
		}
	}
	self, count := rec.selfTimes()
	busy := self["core.init"] + self["core.step"]
	v["core.node_step_us"] = float64(self["core.step"].Microseconds()) / float64(max(count["core.step"], 1))
	v["core.node_busy_ms_per_instance"] = ms(busy) / replayInstances
	v["wire.bytes_per_frame"] = float64(traced.bytes) / float64(traced.frames)
	v["bench.trace_overhead_frac"] = float64(traced.wall-plain.wall) / float64(plain.wall)
	if sl == nil {
		v["sim.messages_per_run"] = float64(traced.steps) / replayInstances
		// The untraced pass prices the replayed layers without the timers.
		v["bench.accounted_frac"] = ms(plain.wall) / replayInstances / (ms(win.cpu) / float64(win.ops))
	}

	budget := time.Duration(seconds * float64(10*time.Millisecond))
	if err := kernels(seed, budget, v); err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := rec.write(traceOut); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// timeKernel reports the median nanoseconds per call of run, which
// executes its argument's worth of calls and returns the time they took.
// The batch size is grown until a batch lasts a twentieth of the budget.
func timeKernel(budget time.Duration, run func(n int) time.Duration) float64 {
	n := 1
	for run(n) < budget/20 && n < 1<<24 {
		n *= 2
	}
	var per []float64
	for deadline := time.Now().Add(budget); len(per) < 5 || time.Now().Before(deadline); {
		per = append(per, float64(run(n))/float64(n))
	}
	return median(per)
}

// calls adapts a plain function to timeKernel.
func calls(fn func()) func(int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for range n {
			fn()
		}
		return time.Since(t0)
	}
}

// kernels times each layer's exported functions and stores the results in
// v. A kernel that errors fails the traced run: its number would be wrong.
func kernels(seed int64, budget time.Duration, v map[string]float64) error {
	var kerr error
	note := func(err error) {
		if err != nil && kerr == nil {
			kerr = err
		}
	}
	y := kernelPoints(seed, 1, kernelN-kernelF, kernelD)
	ms11, err := geometry.MultisetOf(y...)
	if err != nil {
		return err
	}

	// lp: the lex-min Γ program of y, first stage.
	prob, zvars, err := gammaProgram(y, kernelF, nil)
	if err != nil {
		return err
	}
	sibling, _, err := gammaProgram(y, kernelF, kernelPoints(seed, 2, 1, kernelD)[0])
	if err != nil {
		return err
	}
	ws := lp.NewWorkspace()
	solved := func(sol *lp.Solution, err error) *lp.Solution {
		if err == nil && sol.Status != lp.Optimal {
			err = fmt.Errorf("lp kernel: status %v", sol.Status)
		}
		note(err)
		return sol
	}
	v["lp.cold_solve_us"] = timeKernel(budget, calls(func() { solved(prob.SolveWith(ws)) })) / 1e3
	m0 := mallocs()
	const allocRuns = 16
	for range allocRuns {
		solved(prob.SolveWith(ws))
	}
	v["lp.allocs_per_solve"] = float64(mallocs()-m0) / allocRuns
	var basis lp.Basis
	v["lp.warm_solve_us"] = timeKernel(budget, calls(func() {
		solved(prob.SolveWithBasis(ws, &basis))
		solved(sibling.SolveWithBasis(ws, &basis))
	})) / 2e3
	z0 := []lp.Term{{Var: zvars[0], Coeff: 1}}
	z1 := []lp.Term{{Var: zvars[1], Coeff: 1}}
	v["lp.hot_resolve_us"] = timeKernel(budget, func(n int) time.Duration {
		var d time.Duration
		for range n {
			sol, hot, err := prob.SolveHot(ws)
			if solved(sol, err); kerr != nil {
				return time.Hour // ends the calibration; the error is reported
			}
			t0 := time.Now()
			note(hot.AppendLE(z0, sol.Values[zvars[0]]+1e-9))
			note(prob.SetObjective(lp.Minimize, z1))
			solved(hot.Resolve())
			d += time.Since(t0)
			note(prob.SetObjective(lp.Minimize, z0))
		}
		return d
	}) / 1e3

	// hull: membership of a point in the hull of the candidate set.
	queries := kernelPoints(seed, 3, 16, kernelD)
	q := 0
	v["hull.contains_us"] = timeKernel(budget, calls(func() {
		_, err := hull.Contains(y, queries[q%len(queries)], 0)
		note(err)
		q++
	})) / 1e3

	// tverberg: the Radon closed form (f = 1) and the lifted search (f = 2).
	radonPts := kernelPoints(seed, 4, kernelD+2, kernelD)
	v["tverberg.radon_ns"] = timeKernel(budget, calls(func() {
		_, err := tverberg.Radon(radonPts)
		note(err)
	}))
	v["tverberg.lift_us"] = timeKernel(budget, calls(func() {
		_, err := tverberg.Lift(ms11, kernelF+1)
		note(err)
	})) / 1e3
	const liftTrials = 200
	liftFails := 0
	for t := range liftTrials {
		ys, err := geometry.MultisetOf(kernelPoints(seed, 100+uint64(t), kernelN-kernelF, kernelD)...)
		if err != nil {
			return err
		}
		part, err := tverberg.Lift(ys, kernelF+1)
		if err != nil || tverberg.Verify(ys, part, 1e-6) != nil {
			liftFails++ // the fallback ladder would run: the lift was wasted
		}
	}
	v["tverberg.lift_fail_frac"] = float64(liftFails) / liftTrials

	// safearea: one Γ-point per method rung, and the incremental swap.
	ms4, err := geometry.MultisetOf(kernelPoints(seed, 5, liveN-1, kernelD)...)
	if err != nil {
		return err
	}
	point := func(y *geometry.Multiset, f int, method safearea.Method) func() {
		return func() {
			_, err := safearea.PointWith(y, f, method)
			note(err)
		}
	}
	v["safearea.point_radon_us"] = timeKernel(budget, calls(point(ms4, 1, safearea.MethodRadon))) / 1e3
	v["safearea.point_lift_us"] = timeKernel(budget, calls(point(ms11, kernelF, safearea.MethodTverbergLift))) / 1e3
	v["safearea.point_lp_us"] = timeKernel(budget, calls(point(ms11, kernelF, safearea.MethodLexMinLP))) / 1e3
	inc, err := safearea.NewIncremental(ms11, kernelF)
	if err != nil {
		return err
	}
	swaps := kernelPoints(seed, 6, 16, kernelD)
	s := 0
	v["safearea.incremental_swap_us"] = timeKernel(budget, calls(func() {
		note(inc.Swap(s%inc.Len(), swaps[s%len(swaps)]))
		_, err := inc.Point(safearea.MethodAuto)
		note(err)
		s++
	})) / 1e3

	// broadcast: one reliable broadcast per origin across n in-memory RBCs.
	val := kernelPoints(seed, 7, 1, kernelD)[0]
	handles, deliveries, _, err := rbcExchange(val)
	if err != nil {
		return err
	}
	v["broadcast.rbc_handle_ns"] = timeKernel(budget, func(n int) time.Duration {
		var d time.Duration
		for range n {
			_, _, el, err := rbcExchange(val)
			note(err)
			d += el
		}
		return d
	}) / float64(handles)
	v["broadcast.rbc_msgs_per_delivery"] = float64(handles) / float64(deliveries)

	// aad: one witness-exchange round across n in-memory Coordinators.
	aadHandles, _, err := aadRound(val)
	if err != nil {
		return err
	}
	roundNs := timeKernel(budget, func(n int) time.Duration {
		var d time.Duration
		for range n {
			_, el, err := aadRound(val)
			note(err)
			d += el
		}
		return d
	})
	v["aad.round_us"] = roundNs / 1e3
	v["aad.msgs_per_round"] = float64(aadHandles)
	v["aad.handle_ns"] = roundNs / float64(aadHandles)

	// wire: the frames one replayed instance puts on the wire.
	corpus, err := frameCorpus(seed)
	if err != nil {
		return err
	}
	var dec wire.ConsensusMsg
	decodeAll := func() {
		for _, f := range corpus.frames {
			_, body, err := wire.ParseFrame(f[4:])
			if err == nil {
				err = wire.DecodeConsensus(&dec, body)
			}
			note(err)
		}
	}
	buf := make([]byte, 0, 256)
	encodeAll := func() {
		for i := range corpus.msgs {
			buf = wire.AppendConsensus(buf[:0], 1, &corpus.msgs[i])
		}
	}
	frames := float64(len(corpus.frames))
	v["wire.decode_ns"] = timeKernel(budget, calls(decodeAll)) / frames
	v["wire.encode_ns"] = timeKernel(budget, calls(encodeAll)) / frames
	m0 = mallocs()
	decodeAll()
	encodeAll()
	v["wire.allocs_per_frame"] = float64(mallocs()-m0) / (2 * frames)

	// sim: the event engine alone, driven by nodes that only echo.
	delivered, _, err := echoRun(seed)
	if err != nil {
		return err
	}
	v["sim.event_ns"] = timeKernel(budget, func(n int) time.Duration {
		var d time.Duration
		for range n {
			_, el, err := echoRun(seed)
			note(err)
			d += el
		}
		return d
	}) / float64(delivered)
	return kerr
}

// gammaProgram builds the joint hull-intersection program of Γ(y): free z,
// and per (|y|−f)-subset convex weights α ≥ 0 with Σα = 1 and Σα·p = z —
// the program safearea's lex-min rung hands to lp — minimising z[0]. A
// non-nil swap replaces the first member of the first subset, giving the
// sibling program a warm start is for.
func gammaProgram(y []geometry.Vector, f int, swap geometry.Vector) (*lp.Problem, []lp.VarID, error) {
	d := y[0].Dim()
	prob := lp.NewProblem()
	zvars := make([]lp.VarID, d)
	for l := range zvars {
		z, err := prob.AddVar("z", math.Inf(-1), math.Inf(1))
		if err != nil {
			return nil, nil, err
		}
		zvars[l] = z
	}
	first := true
	var buildErr error
	err := combin.Combinations(len(y), len(y)-f, func(idx []int) bool {
		pts := make([]geometry.Vector, len(idx))
		for i, j := range idx {
			pts[i] = y[j]
		}
		if first && swap != nil {
			pts[0] = swap
		}
		first = false
		alphas := make([]lp.VarID, len(pts))
		sum := make([]lp.Term, len(pts))
		for i := range pts {
			if alphas[i], buildErr = prob.AddVar("a", 0, math.Inf(1)); buildErr != nil {
				return false
			}
			sum[i] = lp.Term{Var: alphas[i], Coeff: 1}
		}
		if buildErr = prob.AddConstraint("sum", sum, lp.EQ, 1); buildErr != nil {
			return false
		}
		for l := range d {
			terms := make([]lp.Term, 0, len(pts)+1)
			for i, a := range alphas {
				terms = append(terms, lp.Term{Var: a, Coeff: pts[i][l]})
			}
			terms = append(terms, lp.Term{Var: zvars[l], Coeff: -1})
			if buildErr = prob.AddConstraint("eq", terms, lp.EQ, 0); buildErr != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = buildErr
	}
	if err == nil {
		err = prob.SetObjective(lp.Minimize, []lp.Term{{Var: zvars[0], Coeff: 1}})
	}
	return prob, zvars, err
}

// rbcExchange runs one reliable broadcast from every origin to quiescence
// across n fresh RBCs and reports Handle calls, deliveries and the time
// spent inside Handle's loop.
func rbcExchange(val geometry.Vector) (handles, deliveries int, elapsed time.Duration, err error) {
	cfg := liveConfig()
	type item struct {
		from, to sim.ProcID
		msg      broadcast.RBCMsg
	}
	rbcs := make([]*broadcast.RBC, cfg.N)
	var queue []item
	toAll := func(from sim.ProcID, m broadcast.RBCMsg) {
		for to := range rbcs {
			queue = append(queue, item{from, sim.ProcID(to), m})
		}
	}
	for p := range rbcs {
		if rbcs[p], err = broadcast.NewRBC(cfg.N, cfg.F, sim.ProcID(p), cfg.D); err != nil {
			return 0, 0, 0, err
		}
		init, err := rbcs[p].Broadcast(1, val)
		if err != nil {
			return 0, 0, 0, err
		}
		toAll(sim.ProcID(p), init)
	}
	t0 := time.Now()
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		out, del := rbcs[it.to].Handle(it.from, it.msg)
		handles++
		deliveries += len(del)
		for _, m := range out {
			toAll(it.to, m)
		}
	}
	return handles, deliveries, time.Since(t0), nil
}

// aadRound runs one witness-exchange round to quiescence across n fresh
// Coordinators and reports Handle calls and the time the exchange took.
func aadRound(val geometry.Vector) (handles int, elapsed time.Duration, err error) {
	cfg := liveConfig()
	type item struct {
		from, to sim.ProcID
		msg      aad.Msg
	}
	coords := make([]*aad.Coordinator, cfg.N)
	var queue []item
	toAll := func(from sim.ProcID, ms []aad.Msg) {
		for _, m := range ms {
			for to := range coords {
				queue = append(queue, item{from, sim.ProcID(to), m})
			}
		}
	}
	for p := range coords {
		if coords[p], err = aad.NewCoordinator(cfg.N, cfg.F, sim.ProcID(p), cfg.D); err != nil {
			return 0, 0, err
		}
	}
	completed := 0
	t0 := time.Now()
	for p, c := range coords {
		out, err := c.StartRound(1, val)
		if err != nil {
			return 0, 0, err
		}
		toAll(sim.ProcID(p), out)
	}
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		out, results := coords[it.to].Handle(it.from, it.msg)
		handles++
		completed += len(results)
		toAll(it.to, out)
	}
	elapsed = time.Since(t0)
	if completed != cfg.N {
		return 0, 0, fmt.Errorf("aad kernel: %d of %d processes completed the round", completed, cfg.N)
	}
	return handles, elapsed, nil
}

// corpus is the wire traffic of one replayed instance, as frames and as
// the messages they encode.
type corpus struct {
	frames [][]byte
	msgs   []wire.ConsensusMsg
}

func frameCorpus(seed int64) (*corpus, error) {
	cfg := liveConfig()
	net := &replayNet{nodes: make([]*core.AsyncNode, cfg.N), apis: make([]replayAPI, cfg.N)}
	if _, _, err := net.replayInstance(1, liveInputs(seed, 1, cfg.N, cfg.D), -1); err != nil {
		return nil, err
	}
	c := &corpus{}
	for at := 0; at < len(net.arena); {
		end := at + 4 + int(binary.BigEndian.Uint32(net.arena[at:]))
		frame := net.arena[at:end]
		_, body, err := wire.ParseFrame(frame[4:])
		var m wire.ConsensusMsg // fresh per frame: the corpus keeps every Value
		if err == nil {
			err = wire.DecodeConsensus(&m, body)
		}
		if err != nil {
			return nil, fmt.Errorf("wire kernel: %w", err)
		}
		c.frames, c.msgs = append(c.frames, frame), append(c.msgs, m)
		at = end
	}
	return c, nil
}

// echoNode bounces every message back to its sender until its budget is
// spent: the event engine's cost with no protocol on top.
type echoNode struct{ left int }

func (e *echoNode) Init(api sim.API) { api.Broadcast(struct{}{}) }

func (e *echoNode) OnMessage(api sim.API, from sim.ProcID, msg sim.Message) {
	if e.left > 0 {
		e.left--
		api.Send(from, msg)
	}
}

// echoRun drives one serial engine run over n echo nodes.
func echoRun(seed int64) (delivered int64, elapsed time.Duration, err error) {
	nodes := make([]sim.Node, liveN)
	for p := range nodes {
		nodes[p] = &echoNode{left: 400}
	}
	eng, err := sim.NewEngine(sim.Config{
		N: liveN, Seed: seed, NodeWorkers: 1,
		Delay: sim.ExponentialDelay{Mean: 3 * time.Millisecond},
	}, nodes)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	st, err := eng.Run()
	return st.Delivered, time.Since(t0), err
}
