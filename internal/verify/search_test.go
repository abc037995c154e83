package verify

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/sim"
)

// This file is the adaptive adversary: instead of sampling Byzantine
// behaviours and message schedules, Search *optimizes* them. A candidate
// execution is a Genome — per-directed-link delay boosts, per-process
// crash/restart windows, plus the values the Byzantine processes
// advertise — evaluated by running the restricted
// asynchronous algorithm (the variant whose Bi sets are decided by message
// arrival order, so schedule perturbations genuinely change the protocol's
// trajectory) under a deterministic discrete-event engine. The score
// rewards executions that push decisions toward (or past) the correct-
// input hull boundary and that slow the per-round contraction — the two
// failure directions the paper's Theorems exclude at the resilience
// bound. Greedy hill-climbing with annealed acceptance over seeded
// randomness keeps the whole search replayable bit-for-bit; Minimize
// strips a found genome to the components that matter; Instance /
// ReplayInstance serialize survivors into the regression corpus that
// TestAdversaryRegression replays.

// SearchSpec configures the schedule/value search. All randomness — the
// correct processes' inputs, the initial genome, mutation and acceptance —
// derives from Seed.
type SearchSpec struct {
	// N, F, D, Epsilon, MaxRounds parameterize the restricted
	// asynchronous run (inputs in the unit box).
	N, F, D   int
	Epsilon   float64
	MaxRounds int
	// Seed drives every random stream of the search.
	Seed int64
	// Iterations is the annealing length per restart; Restarts the number
	// of independent starting genomes.
	Iterations int
	Restarts   int
	// BaseDelay is the floor link delay; link boosts are multiples of
	// BaseDelay/4 up to MaxExtra units.
	BaseDelay time.Duration
	MaxExtra  int
}

// WithDefaults fills unset knobs.
func (s SearchSpec) WithDefaults() SearchSpec {
	if s.Epsilon == 0 {
		s.Epsilon = 0.05
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = 4
	}
	if s.Iterations == 0 {
		s.Iterations = 50
	}
	if s.BaseDelay == 0 {
		s.BaseDelay = time.Millisecond
	}
	if s.MaxExtra == 0 {
		s.MaxExtra = 12
	}
	return s
}

func (s SearchSpec) params() core.Params {
	return core.Params{
		N: s.N, F: s.F, D: s.D,
		Epsilon:   s.Epsilon,
		Bounds:    geometry.UniformBox(s.D, 0, 1),
		MaxRounds: s.MaxRounds,
	}
}

// Genome is one candidate adversarial execution.
type Genome struct {
	// LinkExtra[from*N+to] boosts the from→to link delay by that many
	// quarter-BaseDelay units (0 = the base schedule).
	LinkExtra []int
	// ByzIDs are the f Byzantine process ids, strictly increasing.
	ByzIDs []int
	// Targets holds two advertised vectors per Byzantine process
	// (equivocation: even-numbered receivers get Targets[2k], odd get
	// Targets[2k+1]). Values may lie outside the input box — receivers
	// only check dimension and finiteness, exactly like a real attacker.
	Targets [][]float64
	// CrashRounds holds an optional crash window per process:
	// CrashRounds[2i] is process i's crash round, CrashRounds[2i+1] its
	// restart round (both zero = never crashes; nil = no windows at all).
	// During [crash, restart) the process's outgoing round messages are
	// withheld and re-sent in order at restart (or when it decides) — a
	// crash-and-recover fault expressed purely as scheduling, so every
	// message is still eventually delivered and the execution stays inside
	// the asynchronous model the theorems quantify over. At most F correct
	// processes may carry windows (the fault budget: more simultaneous
	// silences than f can starve the first-(n−f) collection rule outright,
	// which would be an adversary stronger than the model admits). Windows
	// on Byzantine ids are ignored — those processes are already arbitrary.
	CrashRounds []int
}

func (g Genome) clone() Genome {
	out := Genome{
		LinkExtra:   append([]int(nil), g.LinkExtra...),
		ByzIDs:      append([]int(nil), g.ByzIDs...),
		Targets:     make([][]float64, len(g.Targets)),
		CrashRounds: append([]int(nil), g.CrashRounds...),
	}
	for i, t := range g.Targets {
		out.Targets[i] = append([]float64(nil), t...)
	}
	return out
}

// Result is an evaluated genome. Score is minimized by the search: the
// validity margin (how far inside the correct-input hull the worst
// decision sits, radially) plus the contraction slack (1 − the worst
// per-round spread ratio); a validity violation or a stall subtracts a
// large constant, making real counterexamples dominate everything else.
type Result struct {
	Spec   SearchSpec
	Genome Genome
	Score  float64
	// MinMargin is the worst decision's radial hull margin (≤ 0 means at
	// or beyond the correct-input radius); Slack is 1 − max per-round
	// spread ratio (≈ 0 means a round barely contracted).
	MinMargin float64
	Slack     float64
	// Violation is the exact validity oracle: some correct decision left
	// the hull of correct inputs. Stalled means a correct process failed
	// to decide (or the engine hit its event cap).
	Violation bool
	Stalled   bool
}

// scheduleDelay is the genome's delay model: constant base plus the
// per-directed-link boost. Deterministic, so the schedule is a pure
// function of the genome.
type scheduleDelay struct {
	n     int
	base  time.Duration
	unit  time.Duration
	extra []int
}

// Delay implements sim.DelayModel.
func (s scheduleDelay) Delay(from, to sim.ProcID, _ time.Duration, _ *rand.Rand) time.Duration {
	return s.base + time.Duration(s.extra[int(from)*s.n+int(to)])*s.unit
}

// Evaluate runs one genome and scores the execution. Errors are
// configuration-level only (bad spec); protocol-level trouble is part of
// the Result.
func Evaluate(spec SearchSpec, g Genome) (*Result, error) {
	spec = spec.WithDefaults()
	params := spec.params()
	byz := make(map[int]int, len(g.ByzIDs)) // id → genome slot
	for k, id := range g.ByzIDs {
		if id < 0 || id >= spec.N {
			return nil, fmt.Errorf("adversary: byz id %d out of range n=%d", id, spec.N)
		}
		byz[id] = k
	}
	if len(byz) != spec.F {
		return nil, fmt.Errorf("adversary: want %d distinct byz ids, got %d", spec.F, len(byz))
	}
	if len(g.LinkExtra) != spec.N*spec.N {
		return nil, fmt.Errorf("adversary: LinkExtra length %d, want %d", len(g.LinkExtra), spec.N*spec.N)
	}
	if len(g.CrashRounds) != 0 && len(g.CrashRounds) != 2*spec.N {
		return nil, fmt.Errorf("adversary: CrashRounds length %d, want 0 or %d", len(g.CrashRounds), 2*spec.N)
	}
	windows := 0
	for i := 0; len(g.CrashRounds) > 0 && i < spec.N; i++ {
		c, r := g.CrashRounds[2*i], g.CrashRounds[2*i+1]
		if c == 0 && r == 0 {
			continue
		}
		if c < 1 || r <= c || r > spec.MaxRounds+1 {
			return nil, fmt.Errorf("adversary: process %d crash window [%d, %d) invalid (want 1 ≤ crash < restart ≤ MaxRounds+1 = %d)",
				i, c, r, spec.MaxRounds+1)
		}
		if _, ok := byz[i]; !ok {
			windows++
		}
	}
	if windows > spec.F {
		return nil, fmt.Errorf("adversary: %d correct crash windows exceed the fault budget f=%d", windows, spec.F)
	}

	// Correct inputs are a pure function of the spec seed, so every
	// genome fights the same honest population.
	inRng := rand.New(rand.NewSource(spec.Seed))
	inputs := make([]geometry.Vector, spec.N)
	for i := range inputs {
		inputs[i] = adversary.RandomVector(inRng, params.Bounds)
	}

	nodes := make([]sim.Node, spec.N)
	correct := make([]*core.RestrictedAsyncNode, spec.N)
	for i := 0; i < spec.N; i++ {
		if slot, ok := byz[i]; ok {
			nodes[i] = byzScheduleNode(spec, g, slot)
			continue
		}
		node, err := core.NewRestrictedAsyncNode(params, sim.ProcID(i), inputs[i])
		if err != nil {
			return nil, err
		}
		correct[i] = node
		nodes[i] = node
		if len(g.CrashRounds) > 0 && g.CrashRounds[2*i] > 0 {
			nodes[i] = &crashWindowNode{
				inner:   node,
				n:       spec.N,
				crash:   g.CrashRounds[2*i],
				restart: g.CrashRounds[2*i+1],
			}
		}
	}

	eng, err := sim.NewEngine(sim.Config{
		N: spec.N,
		Delay: scheduleDelay{
			n: spec.N, base: spec.BaseDelay, unit: spec.BaseDelay / 4,
			extra: g.LinkExtra,
		},
		Seed:      spec.Seed,
		MaxEvents: 4 * spec.N * spec.N * (spec.MaxRounds + 2) * (spec.MaxExtra + 4),
	}, nodes)
	if err != nil {
		return nil, err
	}
	_, runErr := eng.Run()

	res := &Result{Spec: spec, Genome: g.clone(), Stalled: runErr != nil}
	var correctPts []geometry.Vector
	for i, node := range correct {
		if node != nil {
			correctPts = append(correctPts, inputs[i])
		}
	}
	var decisions []geometry.Vector
	var histories [][]geometry.Vector
	for _, node := range correct {
		if node == nil {
			continue
		}
		histories = append(histories, node.History())
		dec, derr := node.Decision()
		if derr != nil {
			res.Stalled = true
			continue
		}
		decisions = append(decisions, dec)
	}
	res.MinMargin, res.Violation = validityMargin(correctPts, decisions)
	res.Slack = contractionSlack(histories)
	res.Score = res.MinMargin + res.Slack
	if res.Violation {
		res.Score -= 100
	}
	if res.Stalled {
		res.Score -= 1000
	}
	return res, nil
}

// byzScheduleNode front-loads the genome's advertised states: on Init it
// sends round-t StateMsgs for every round up to the horizon, equivocating
// between the slot's two target vectors by receiver parity. Front-loading
// means the Byzantine values are always among the first arrivals, the
// strongest position under the first-(n−f) collection rule.
func byzScheduleNode(spec SearchSpec, g Genome, slot int) sim.Node {
	ta := geometry.Vector(g.Targets[2*slot]).Clone()
	tb := geometry.Vector(g.Targets[2*slot+1]).Clone()
	return &adversary.FuncAsync{
		OnInit: func(api sim.API) {
			for r := 1; r <= spec.MaxRounds; r++ {
				for to := 0; to < spec.N; to++ {
					v := ta
					if to%2 == 1 {
						v = tb
					}
					api.Send(sim.ProcID(to), core.StateMsg{Round: r, Value: v.Clone()})
				}
			}
		},
	}
}

// crashWindowNode wraps a correct node and realizes a genome crash window
// as pure scheduling: outgoing round-t states with crash ≤ t < restart are
// withheld (the process looks dead to everyone else), then re-sent in
// their original order the moment the process emits a round ≥ restart
// message or decides. Messages to self pass through — a crash stops a
// process's network, not its local state, and withholding self-delivery
// would deadlock the node against its own silence. Because the window is
// bounded by MaxRounds+1 and any residue flushes before Halt, every
// message is eventually delivered, keeping the execution inside the
// asynchronous fault model.
type crashWindowNode struct {
	inner          sim.Node
	n              int // processes, for Broadcast
	crash, restart int
	held           []heldSend
}

type heldSend struct {
	to  sim.ProcID
	msg sim.Message
}

var _ sim.Node = (*crashWindowNode)(nil)

// Init implements sim.Node.
func (c *crashWindowNode) Init(api sim.API) {
	c.inner.Init(&crashGateAPI{API: api, w: c})
}

// OnMessage implements sim.Node.
func (c *crashWindowNode) OnMessage(api sim.API, from sim.ProcID, msg sim.Message) {
	c.inner.OnMessage(&crashGateAPI{API: api, w: c}, from, msg)
}

// crashGateAPI intercepts the wrapped node's sends to apply the window.
type crashGateAPI struct {
	sim.API
	w *crashWindowNode
}

// Send withholds in-window round states (except to self) and flushes the
// backlog on the first post-window send.
func (g *crashGateAPI) Send(to sim.ProcID, msg sim.Message) {
	if sm, ok := msg.(core.StateMsg); ok && to != g.ID() {
		switch {
		case sm.Round >= g.w.crash && sm.Round < g.w.restart:
			g.w.held = append(g.w.held, heldSend{to: to, msg: msg})
			return
		case sm.Round >= g.w.restart:
			g.flush()
		}
	}
	g.API.Send(to, msg)
}

// Broadcast routes through the gated Send so window filtering applies
// per recipient.
func (g *crashGateAPI) Broadcast(msg sim.Message) {
	for to := 0; to < g.w.n; to++ {
		g.Send(sim.ProcID(to), msg)
	}
}

// Halt releases any still-held messages before the node terminates, so a
// window that outlives the decision cannot withhold anything forever.
func (g *crashGateAPI) Halt() {
	g.flush()
	g.API.Halt()
}

func (g *crashGateAPI) flush() {
	for _, h := range g.w.held {
		g.API.Send(h.to, h.msg)
	}
	g.w.held = nil
}

// validityMargin returns the worst radial margin of the decisions against
// the correct-input set and the exact hull-containment verdict. The margin
// is the search gradient (smooth-ish, cheap); the verdict is the oracle.
func validityMargin(correct, decisions []geometry.Vector) (float64, bool) {
	if len(decisions) == 0 || len(correct) == 0 {
		return 0, false
	}
	d := correct[0].Dim()
	c := geometry.NewVector(d)
	for _, p := range correct {
		for l := 0; l < d; l++ {
			c[l] += p[l] / float64(len(correct))
		}
	}
	var maxR float64
	for _, p := range correct {
		maxR = math.Max(maxR, p.DistInf(c))
	}
	if maxR == 0 {
		maxR = 1
	}
	margin := math.Inf(1)
	violated := false
	for _, z := range decisions {
		margin = math.Min(margin, 1-z.DistInf(c)/maxR)
		if in, err := hull.Contains(correct, z, hull.DefaultTol); err == nil && !in {
			violated = true
		}
	}
	return margin, violated
}

// contractionSlack returns 1 − the maximum per-round spread ratio across
// the correct histories: near zero means the adversary found a round that
// barely contracted, the termination-stalling direction.
func contractionSlack(histories [][]geometry.Vector) float64 {
	if len(histories) == 0 {
		return 1
	}
	rounds := math.MaxInt
	for _, h := range histories {
		rounds = min(rounds, len(h))
	}
	var maxRatio float64
	for t := 1; t < rounds; t++ {
		prev := roundSpread(histories, t-1)
		curr := roundSpread(histories, t)
		if prev > 1e-12 {
			maxRatio = math.Max(maxRatio, curr/prev)
		}
	}
	return 1 - maxRatio
}

func roundSpread(histories [][]geometry.Vector, t int) float64 {
	var spread float64
	for i := range histories {
		for j := i + 1; j < len(histories); j++ {
			spread = math.Max(spread, histories[i][t].DistInf(histories[j][t]))
		}
	}
	return spread
}

// Search runs the annealed schedule/value search and returns the
// worst-scoring (most adversarial) evaluated genome.
func Search(spec SearchSpec) (*Result, error) {
	spec = spec.WithDefaults()
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	var best *Result
	for restart := 0; restart <= spec.Restarts; restart++ {
		cur, err := Evaluate(spec, randomGenome(spec, rng))
		if err != nil {
			return nil, err
		}
		if best == nil || cur.Score < best.Score {
			best = cur
		}
		temp := 0.2
		for it := 0; it < spec.Iterations; it++ {
			cand, err := Evaluate(spec, mutate(spec, cur.Genome, rng))
			if err != nil {
				return nil, err
			}
			if cand.Score < cur.Score || rng.Float64() < math.Exp((cur.Score-cand.Score)/temp) {
				cur = cand
			}
			if cand.Score < best.Score {
				best = cand
			}
			temp *= 0.96
		}
	}
	return best, nil
}

// randomGenome draws a fresh genome: sparse link boosts, the Byzantine
// ids a random f-subset, targets at inflated-box corners (the strongest
// lure positions).
func randomGenome(spec SearchSpec, rng *rand.Rand) Genome {
	g := Genome{LinkExtra: make([]int, spec.N*spec.N)}
	for i := range g.LinkExtra {
		if rng.Float64() < 0.25 {
			g.LinkExtra[i] = rng.Intn(spec.MaxExtra + 1)
		}
	}
	g.ByzIDs = rng.Perm(spec.N)[:spec.F]
	sortInts(g.ByzIDs)
	for k := 0; k < 2*spec.F; k++ {
		g.Targets = append(g.Targets, cornerTarget(spec, rng))
	}
	if rng.Float64() < 0.4 {
		g.CrashRounds = randomCrashWindow(spec, rng, make([]int, 2*spec.N))
	}
	return g
}

// randomCrashWindow clears every window and places one fresh crash/restart
// pair on a random process. Generation and mutation both go through here,
// so a searched genome never carries more than one window — comfortably
// inside the ≤ f budget Evaluate enforces (windows landing on a Byzantine
// id are simply inert).
func randomCrashWindow(spec SearchSpec, rng *rand.Rand, cw []int) []int {
	for i := range cw {
		cw[i] = 0
	}
	p := rng.Intn(spec.N)
	c := 1 + rng.Intn(spec.MaxRounds)
	cw[2*p] = c
	cw[2*p+1] = c + 1 + rng.Intn(spec.MaxRounds+1-c)
	return cw
}

// cornerTarget picks a vertex of the inflated box [−1, 2]^d (occasionally
// an interior point), the value placements that pull hardest.
func cornerTarget(spec SearchSpec, rng *rand.Rand) []float64 {
	t := make([]float64, spec.D)
	for l := range t {
		switch rng.Intn(4) {
		case 0:
			t[l] = -1
		case 1:
			t[l] = 2
		case 2:
			t[l] = 0
		default:
			t[l] = rng.Float64()
		}
	}
	return t
}

// mutate perturbs one genome component.
func mutate(spec SearchSpec, g Genome, rng *rand.Rand) Genome {
	out := g.clone()
	switch rng.Intn(8) {
	case 0, 1: // bump a link boost
		i := rng.Intn(len(out.LinkExtra))
		out.LinkExtra[i] = rng.Intn(spec.MaxExtra + 1)
	case 2: // clear a link boost
		out.LinkExtra[rng.Intn(len(out.LinkExtra))] = 0
	case 3: // re-place one Byzantine id
		out.ByzIDs = rng.Perm(spec.N)[:spec.F]
		sortInts(out.ByzIDs)
	case 4: // resample a whole target
		out.Targets[rng.Intn(len(out.Targets))] = cornerTarget(spec, rng)
	case 5: // place (or move) the crash window
		if out.CrashRounds == nil {
			out.CrashRounds = make([]int, 2*spec.N)
		}
		out.CrashRounds = randomCrashWindow(spec, rng, out.CrashRounds)
	case 6: // clear the crash window
		for i := range out.CrashRounds {
			out.CrashRounds[i] = 0
		}
	default: // nudge one target coordinate
		t := out.Targets[rng.Intn(len(out.Targets))]
		t[rng.Intn(len(t))] += rng.NormFloat64() * 0.3
	}
	return out
}

// Minimize strips a found result to its essential genome: link boosts are
// zeroed, crash windows dropped, and targets snapped to the box center
// greedily, keeping every change whose re-evaluated score stays within tol
// of the found score
// (and whose Violation/Stalled flags match). The result is the smallest
// schedule the regression corpus needs to reproduce the behaviour.
func Minimize(res *Result, tol float64) (*Result, error) {
	best := res
	tryKeep := func(g Genome) (bool, error) {
		cand, err := Evaluate(best.Spec, g)
		if err != nil {
			return false, err
		}
		if cand.Violation == best.Violation && cand.Stalled == best.Stalled &&
			cand.Score <= best.Score+tol {
			best = cand
			return true, nil
		}
		return false, nil
	}
	for i := range best.Genome.LinkExtra {
		if best.Genome.LinkExtra[i] == 0 {
			continue
		}
		g := best.Genome.clone()
		g.LinkExtra[i] = 0
		if _, err := tryKeep(g); err != nil {
			return nil, err
		}
	}
	for i := 0; 2*i < len(best.Genome.CrashRounds); i++ {
		if best.Genome.CrashRounds[2*i] == 0 {
			continue
		}
		g := best.Genome.clone()
		g.CrashRounds[2*i], g.CrashRounds[2*i+1] = 0, 0
		if _, err := tryKeep(g); err != nil {
			return nil, err
		}
	}
	for k := range best.Genome.Targets {
		g := best.Genome.clone()
		for l := range g.Targets[k] {
			g.Targets[k][l] = 0.5
		}
		if _, err := tryKeep(g); err != nil {
			return nil, err
		}
	}
	return best, nil
}

// Instance is the JSON-serializable regression-corpus form of a Result:
// enough to re-run the execution exactly, plus the recorded outcome the
// replay asserts against.
type Instance struct {
	N, F, D     int
	Epsilon     float64
	MaxRounds   int
	Seed        int64
	BaseDelayNS int64
	MaxExtra    int

	LinkExtra   []int
	ByzIDs      []int
	Targets     [][]float64
	CrashRounds []int `json:",omitempty"`

	Score     float64
	MinMargin float64
	Slack     float64
	Violation bool
	Stalled   bool
	// Note is free-form provenance (search settings, date found).
	Note string `json:",omitempty"`
}

// Instance converts a Result for serialization.
func (r *Result) Instance(note string) Instance {
	return Instance{
		N: r.Spec.N, F: r.Spec.F, D: r.Spec.D,
		Epsilon:     r.Spec.Epsilon,
		MaxRounds:   r.Spec.MaxRounds,
		Seed:        r.Spec.Seed,
		BaseDelayNS: int64(r.Spec.BaseDelay),
		MaxExtra:    r.Spec.MaxExtra,
		LinkExtra:   r.Genome.LinkExtra,
		ByzIDs:      r.Genome.ByzIDs,
		Targets:     r.Genome.Targets,
		CrashRounds: r.Genome.CrashRounds,
		Score:       r.Score,
		MinMargin:   r.MinMargin,
		Slack:       r.Slack,
		Violation:   r.Violation,
		Stalled:     r.Stalled,
		Note:        note,
	}
}

// ReplayInstance re-runs a serialized instance and returns the fresh
// evaluation (the caller compares it against the recorded fields).
func ReplayInstance(inst Instance) (*Result, error) {
	spec := SearchSpec{
		N: inst.N, F: inst.F, D: inst.D,
		Epsilon:   inst.Epsilon,
		MaxRounds: inst.MaxRounds,
		Seed:      inst.Seed,
		BaseDelay: time.Duration(inst.BaseDelayNS),
		MaxExtra:  inst.MaxExtra,
	}
	g := Genome{
		LinkExtra:   inst.LinkExtra,
		ByzIDs:      inst.ByzIDs,
		Targets:     inst.Targets,
		CrashRounds: inst.CrashRounds,
	}
	return Evaluate(spec, g)
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func testSpec(seed int64) SearchSpec {
	return SearchSpec{
		N: 7, F: 1, D: 2,
		Epsilon:    0.05,
		MaxRounds:  3,
		Seed:       seed,
		Iterations: 12,
		Restarts:   1,
		BaseDelay:  time.Millisecond,
		MaxExtra:   8,
	}
}

// TestEvaluateBaseline: the unperturbed schedule (zero genome) satisfies
// the theorem — every correct process decides inside the correct-input
// hull with positive margin and every round contracts.
func TestEvaluateBaseline(t *testing.T) {
	spec := testSpec(3).WithDefaults()
	g := Genome{
		LinkExtra: make([]int, spec.N*spec.N),
		ByzIDs:    []int{spec.N - 1},
		Targets:   [][]float64{{0.5, 0.5}, {0.5, 0.5}},
	}
	res, err := Evaluate(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation || res.Stalled {
		t.Fatalf("baseline schedule broke the protocol: %+v", res)
	}
	if !(res.Slack > 0) || math.IsInf(res.MinMargin, 0) {
		t.Fatalf("degenerate baseline scores: %+v", res)
	}
}

// TestEvaluateCrashWindow: a crash-and-recover window on one correct
// process is schedule noise the theorem must absorb — no violation, no
// stall even when the process stays dark for the whole run — while still
// genuinely changing the execution; and the fault budget is enforced (a
// second correct window with f=1 is an adversary stronger than the model).
func TestEvaluateCrashWindow(t *testing.T) {
	spec := testSpec(3).WithDefaults()
	base := Genome{
		LinkExtra: make([]int, spec.N*spec.N),
		ByzIDs:    []int{spec.N - 1},
		Targets:   [][]float64{{0.5, 0.5}, {0.5, 0.5}},
	}
	resBase, err := Evaluate(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	crashed := base.clone()
	crashed.CrashRounds = make([]int, 2*spec.N)
	crashed.CrashRounds[0], crashed.CrashRounds[1] = 1, spec.MaxRounds+1
	resCrash, err := Evaluate(spec, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if resCrash.Violation || resCrash.Stalled {
		t.Fatalf("crash window broke the protocol at the resilience bound: %+v", resCrash)
	}
	if resCrash.Score == resBase.Score && resCrash.MinMargin == resBase.MinMargin {
		t.Fatal("whole-run crash window left the execution bit-identical — window not wired in")
	}
	again, err := Evaluate(spec, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if again.Score != resCrash.Score || again.MinMargin != resCrash.MinMargin {
		t.Fatalf("crashed evaluation not deterministic: %+v vs %+v", again, resCrash)
	}

	over := crashed.clone()
	over.CrashRounds[2], over.CrashRounds[3] = 2, 3
	if _, err := Evaluate(spec, over); err == nil {
		t.Fatal("two correct crash windows accepted beyond the f=1 budget")
	}
	empty := crashed.clone()
	empty.CrashRounds[0], empty.CrashRounds[1] = 2, 2
	if _, err := Evaluate(spec, empty); err == nil {
		t.Fatal("empty crash window [2, 2) accepted")
	}
	late := crashed.clone()
	late.CrashRounds[0], late.CrashRounds[1] = 1, spec.MaxRounds+2
	if _, err := Evaluate(spec, late); err == nil {
		t.Fatal("restart past MaxRounds+1 accepted")
	}
}

// TestSearchDeterministic: the whole annealed search is a pure function
// of the spec — bit-identical scores and genomes across runs.
func TestSearchDeterministic(t *testing.T) {
	a, err := Search(testSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(testSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || a.MinMargin != b.MinMargin || a.Slack != b.Slack {
		t.Fatalf("search not deterministic: %+v vs %+v", a, b)
	}
	ja, _ := json.Marshal(a.Genome)
	jb, _ := json.Marshal(b.Genome)
	if string(ja) != string(jb) {
		t.Fatalf("genomes diverged:\n%s\n%s", ja, jb)
	}
}

// TestSearchFindsAdversarialSchedule: the searcher must do at least as
// well as the unperturbed schedule, and across a few seeds it must
// strictly improve on it — otherwise it is not searching.
func TestSearchFindsAdversarialSchedule(t *testing.T) {
	improved := false
	for seed := int64(1); seed <= 3; seed++ {
		spec := testSpec(seed).WithDefaults()
		base, err := Evaluate(spec, Genome{
			LinkExtra: make([]int, spec.N*spec.N),
			ByzIDs:    []int{spec.N - 1},
			Targets:   [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		found, err := Search(spec)
		if err != nil {
			t.Fatal(err)
		}
		if found.Score > base.Score+1e-12 {
			t.Fatalf("seed %d: search (%.4f) worse than baseline (%.4f)", seed, found.Score, base.Score)
		}
		if found.Score < base.Score-1e-9 {
			improved = true
		}
		// Whatever the search found, the theorem must hold at the
		// resilience bound: no validity violation, no stall.
		if found.Violation || found.Stalled {
			t.Fatalf("seed %d: search broke the protocol at the resilience bound: %+v", seed, found)
		}
	}
	if !improved {
		t.Fatal("search never improved on the baseline schedule across 3 seeds")
	}
}

// TestMinimizeAndReplay: minimization preserves the outcome while
// shrinking the genome, and the serialized instance replays bit-for-bit.
func TestMinimizeAndReplay(t *testing.T) {
	found, err := Search(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	minimized, err := Minimize(found, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if minimized.Violation != found.Violation || minimized.Stalled != found.Stalled {
		t.Fatalf("minimization changed the outcome: %+v vs %+v", minimized, found)
	}
	if nz(minimized.Genome.LinkExtra) > nz(found.Genome.LinkExtra) {
		t.Fatalf("minimization grew the schedule: %d → %d boosts",
			nz(found.Genome.LinkExtra), nz(minimized.Genome.LinkExtra))
	}
	inst := minimized.Instance("unit test")
	blob, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayInstance(back)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Score != minimized.Score || replayed.Violation != minimized.Violation ||
		replayed.Stalled != minimized.Stalled {
		t.Fatalf("replay diverged: %+v vs %+v", replayed, minimized)
	}
}

func nz(a []int) int {
	c := 0
	for _, v := range a {
		if v != 0 {
			c++
		}
	}
	return c
}
