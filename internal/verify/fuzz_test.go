package verify

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/lp"
	"repro/internal/wire"
)

// denseRowCap bounds the programs the dense core is asked to solve: on
// the d = 3 threshold-Γ programs (144 rows) its worst case is seconds of
// grinding into the simplex iteration cap, beyond the fuzz engine's
// per-input hang budget. Oversized programs certify the revised core only.
const denseRowCap = 100

// FuzzLPDifferential solves the decoded program through Solve (the
// production kernel choice by size) and through the SolveDense oracle and
// cross-checks them; "revised core" below is the Solve side, which runs
// the revised simplex above 32 rows. The asserted contract, from weakest
// to strongest:
//
//   - no panics on either core, for any decodable program;
//   - the revised core (the default) never fails where the dense core
//     succeeds — the dense tableau is the fragile one (PR 5 retired it for
//     exactly the degenerate regimes this generator aims at), so the
//     reverse direction (dense errors, revised solves) is logged as a
//     generator find, not a failure;
//   - when both cores return a verdict, the statuses agree;
//   - when both are Optimal, the objectives agree within 1e-5 (scaled)
//     and each core's solution actually satisfies its program — the
//     certified-optimal check, so agreeing on a wrong answer also fails;
//   - SolveWithBasis (capture, then warm re-solve) and SolveHot (then
//     Resolve) reach the Solve status, and for Optimal its objective
//     within 1e-6 (checkWarmAndHot).
//
// Status disagreements and certificate failures adjudicated against the
// loser's own certificate are classified into the documented fragility
// table below instead of failing; that table now includes one
// revised-side class (mode-3 contradicted programs are the first regime
// where the revised core demonstrably wobbles too).
//
// Programs above denseRowCap rows skip the dense core and hold the
// revised core to its certificate alone.
func FuzzLPDifferential(f *testing.F) {
	f.Add([]byte{0, 3, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 0, 4, 0x40, 0x00, 0x80, 0x00, 1, 5, 2, 0x20, 0x10})
	f.Add(EncodeGammaInstance(2, [][]float64{
		{0.25, 0.75}, {0.5, 0.5}, {0.75, 0.25}, {0.25, 0.25}, {0.75, 0.75}, {0.5, 0.1}, {0.1, 0.5},
	}))
	f.Fuzz(diffLPOnce)
}

// diffLPOnce is the differential body shared by FuzzLPDifferential and
// TestFragileCorpusBudget: decode, solve both ways, cross-check.
func diffLPOnce(t *testing.T, data []byte) {
	spec := DecodeProgram(data)
	if spec == nil {
		return
	}
	rsol, rerr := solveSpec(spec, false)
	if rerr == nil {
		checkWarmAndHot(t, spec, rsol)
	}
	if spec.NumRows() > denseRowCap {
		if rerr != nil {
			return
		}
		if rsol.Status == lp.Optimal {
			if err := checkFeasible(spec, rsol); err != nil {
				t.Fatalf("revised solution infeasible: %v", err)
			}
		}
		return
	}
	dsol, derr := solveSpec(spec, true)
	switch {
	case derr != nil && rerr != nil:
		return // both rejected the program identically hard
	case rerr != nil:
		t.Fatalf("revised core failed where dense succeeded: %v\nprogram: %d rows", rerr, spec.NumRows())
	case derr != nil:
		class := classifyDenseErr(derr)
		if class == "" {
			t.Fatalf("dense core failed with an undocumented error class where revised succeeded: %v", derr)
		}
		noteFragility(t, class, fmt.Sprintf("dense core failed where revised succeeded: %v", derr))
		return
	}
	// The revised core's claimed optimum must certify, with one narrow,
	// documented exception: on mode-3 contradicted programs (infeasible
	// by a margin just above the certificate floor) the revised core's
	// Phase 1 can drift past the contradiction too and claim an optimum
	// its own certificate rejects while the dense core refutes it with an
	// Infeasible verdict — the mirror image of refuted-infeasible, found
	// by the near-miss needle stream and pinned as
	// fragile_revised_uncertified_0. Any other certificate failure of the
	// revised core is a regression outright.
	if rsol.Status == lp.Optimal {
		if err := checkFeasible(spec, rsol); err != nil {
			if dsol.Status == lp.Infeasible {
				noteFragility(t, fragRevisedUncertifiedOptimum,
					fmt.Sprintf("revised optimum uncertifiable where dense says Infeasible: %v", err))
				return
			}
			t.Fatalf("revised solution infeasible: %v", err)
		}
	}
	denseCertified := dsol.Status != lp.Optimal || checkFeasible(spec, dsol) == nil
	if dsol.Status != rsol.Status {
		// Adjudicate by certificate. A demonstrably wrong dense result
		// — an uncertifiable optimum, or an Infeasible verdict refuted
		// by the revised core's verified feasible point — is the
		// legacy fragility this corpus exists to document, not a
		// regression. Everything else is a genuine divergence.
		switch {
		case dsol.Status == lp.Optimal && !denseCertified:
			noteFragility(t, fragUncertifiedOptimum,
				fmt.Sprintf("dense optimum uncertifiable where revised says %v", rsol.Status))
		case dsol.Status == lp.Infeasible && rsol.Status == lp.Optimal:
			noteFragility(t, fragRefutedInfeasible,
				"dense Infeasible refuted by certified revised optimum")
		default:
			t.Fatalf("verdicts disagree: dense %v, revised %v (%d rows)", dsol.Status, rsol.Status, spec.NumRows())
		}
		return
	}
	if dsol.Status != lp.Optimal {
		return
	}
	if !denseCertified {
		noteFragility(t, fragSharedVerdictInfeasible,
			"dense optimum infeasible at the shared verdict")
		return
	}
	scale := math.Max(1, math.Abs(dsol.Objective))
	if math.Abs(dsol.Objective-rsol.Objective) > 1e-5*scale {
		t.Fatalf("objectives disagree: dense %g, revised %g", dsol.Objective, rsol.Objective)
	}
}

// Documented dense-core fragility classes. Every known-fragility sighting
// in diffLPOnce must land in exactly one of these; anything else is an
// undocumented failure class and fails the input outright. The classes
// mirror the dense tableau's retirement rationale from PR 5: it loses to
// degeneracy (singular bases, pivot stalls at the iteration cap,
// unbounded pivot directions on bounded programs) and to certification
// (optima that do not satisfy their own program).
// The one revised-side class is the exception to the dense-only rule:
// mode-3 fuzzing demonstrated the revised core's Phase 1 can also drift
// past a hair's-width contradiction (see decodeNearMiss and the ROADMAP
// hardening item); it is classified only when the dense core's Infeasible
// verdict refutes the claim.
const (
	fragSingularBasis             = "dense-error:singular-basis"
	fragIterationCap              = "dense-error:iteration-cap"
	fragUnboundedPivot            = "dense-error:unbounded-pivot"
	fragNotSolved                 = "dense-error:not-solved"
	fragUncertifiedOptimum        = "dense-status:uncertified-optimum"
	fragRefutedInfeasible         = "dense-status:refuted-infeasible"
	fragSharedVerdictInfeasible   = "dense-status:shared-verdict-infeasible"
	fragRevisedUncertifiedOptimum = "revised-status:uncertified-optimum"
)

// fragilityBudget is the counted per-class budget for one replay of the
// committed FuzzLPDifferential seed corpus (TestFragileCorpusBudget). The
// corpus is deterministic, so these are exact counts, not tolerances: a
// count above budget means the dense core regressed on inputs it used to
// survive. The non-zero classes are pinned by the harvested fragile_*
// corpus entries (see TestRegenSeedCorpus); zero-budget classes are
// documented — live fuzzing tolerates them — but have no committed
// trigger yet, so a corpus sighting would mean the corpus changed.
var fragilityBudget = map[string]int{
	fragSingularBasis:             0,
	fragIterationCap:              3,
	fragUnboundedPivot:            0,
	fragNotSolved:                 0,
	fragUncertifiedOptimum:        1,
	fragRefutedInfeasible:         3,
	fragSharedVerdictInfeasible:   3,
	fragRevisedUncertifiedOptimum: 1,
}

// fragilityCounts tallies sightings per class within one test process.
// Fuzz workers each keep their own tally; the budget is only asserted
// against the deterministic corpus replay, never against live fuzzing.
var fragilityCounts = struct {
	mu sync.Mutex
	n  map[string]int
}{n: make(map[string]int)}

// noteFragility records one documented-fragility sighting. Classes
// outside fragilityBudget fail immediately: an undocumented failure mode
// must be triaged and either fixed or added to the table, never logged
// into oblivion.
func noteFragility(t *testing.T, class, detail string) {
	t.Helper()
	if _, ok := fragilityBudget[class]; !ok {
		t.Fatalf("undocumented fragility class %q: %s", class, detail)
	}
	fragilityCounts.mu.Lock()
	fragilityCounts.n[class]++
	n := fragilityCounts.n[class]
	fragilityCounts.mu.Unlock()
	t.Logf("known fragility %s (#%d this process): %s", class, n, detail)
}

// snapshotFragility copies the current per-class tallies.
func snapshotFragility() map[string]int {
	fragilityCounts.mu.Lock()
	defer fragilityCounts.mu.Unlock()
	out := make(map[string]int, len(fragilityCounts.n))
	for k, v := range fragilityCounts.n {
		out[k] = v
	}
	return out
}

// classifyFragility is the silent twin of diffLPOnce: it runs the same
// decode/solve/cross-check pipeline but returns the fragility class the
// input would be logged under ("" for clean inputs, inputs both cores
// reject, or genuine divergences that diffLPOnce would fail on). The
// harvest scan (TestHarvestFragilityTriggers) uses it to search the
// deterministic trial stream for triggers of classes still at budget 0.
func classifyFragility(data []byte) string {
	spec := DecodeProgram(data)
	if spec == nil {
		return ""
	}
	rsol, rerr := solveSpec(spec, false)
	if spec.NumRows() > denseRowCap {
		return ""
	}
	dsol, derr := solveSpec(spec, true)
	switch {
	case derr != nil && rerr != nil:
		return ""
	case rerr != nil:
		return ""
	case derr != nil:
		return classifyDenseErr(derr)
	}
	if rsol.Status == lp.Optimal && checkFeasible(spec, rsol) != nil {
		if dsol.Status == lp.Infeasible {
			return fragRevisedUncertifiedOptimum
		}
		return "" // any other revised certificate failure is fatal, not classified
	}
	denseCertified := dsol.Status != lp.Optimal || checkFeasible(spec, dsol) == nil
	if dsol.Status != rsol.Status {
		switch {
		case dsol.Status == lp.Optimal && !denseCertified:
			return fragUncertifiedOptimum
		case dsol.Status == lp.Infeasible && rsol.Status == lp.Optimal:
			return fragRefutedInfeasible
		}
		return ""
	}
	if dsol.Status == lp.Optimal && !denseCertified {
		return fragSharedVerdictInfeasible
	}
	return ""
}

// classifyDenseErr maps a dense-core solve error to its documented class,
// or "" when the error matches none. lp.ErrNotSolved is exported and
// matched structurally; the solver-internal sentinels (singular basis,
// iteration cap, unbounded pivot) are unexported, so their documented
// message texts are the classification key.
func classifyDenseErr(err error) string {
	switch msg := err.Error(); {
	case errors.Is(err, lp.ErrNotSolved):
		return fragNotSolved
	case strings.Contains(msg, "basis factorization singular"):
		return fragSingularBasis
	case strings.Contains(msg, "iteration cap"):
		return fragIterationCap
	case strings.Contains(msg, "unbounded pivot"):
		return fragUnboundedPivot
	}
	return ""
}

// solveSpec builds a fresh copy of the program and solves it through Solve
// (the production kernel choice by size) or, with dense set, through the
// SolveDense oracle.
func solveSpec(spec *ProgramSpec, dense bool) (*lp.Solution, error) {
	p, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if dense {
		return p.SolveDense(lp.NewWorkspace())
	}
	return p.Solve()
}

// checkWarmAndHot solves the program two more ways — SolveWithBasis (a
// capture solve, then a warm re-solve from the captured basis) and SolveHot
// (then a Resolve on the retained state) — and requires each to match the
// Solve outcome want: the same status and, for Optimal, an objective
// within 1e-6.
func checkWarmAndHot(t *testing.T, spec *ProgramSpec, want *lp.Solution) {
	t.Helper()
	p, err := spec.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	same := func(how string, got *lp.Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s failed where Solve returned %v: %v", how, want.Status, err)
		}
		if got.Status != want.Status {
			t.Fatalf("%s: status %v, Solve %v", how, got.Status, want.Status)
		}
		if want.Status == lp.Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("%s: objective %g, Solve %g", how, got.Objective, want.Objective)
		}
	}
	ws := lp.NewWorkspace()
	var bas lp.Basis
	sol, err := p.SolveWithBasis(ws, &bas)
	same("SolveWithBasis capture", sol, err)
	sol, err = p.SolveWithBasis(ws, &bas)
	same("SolveWithBasis warm", sol, err)
	sol, hot, err := p.SolveHot(lp.NewWorkspace())
	same("SolveHot", sol, err)
	if hot != nil {
		sol, err = hot.Resolve()
		same("Hot.Resolve", sol, err)
	}
}

// checkFeasible verifies a claimed-optimal solution against the spec.
func checkFeasible(spec *ProgramSpec, sol *lp.Solution) error {
	const tol = 1e-6
	for j := range spec.Lo {
		x := sol.Values[j]
		if x < spec.Lo[j]-tol || x > spec.Hi[j]+tol {
			return errBounds(j, x, spec.Lo[j], spec.Hi[j])
		}
	}
	for i, row := range spec.Rows {
		var at, mag float64
		for _, tm := range row {
			at += tm.Coeff * sol.Values[tm.Var]
			mag += math.Abs(tm.Coeff * sol.Values[tm.Var])
		}
		rtol := tol * math.Max(1, math.Max(mag, math.Abs(spec.Rhs[i])))
		switch spec.Rels[i] {
		case lp.LE:
			if at > spec.Rhs[i]+rtol {
				return errRow(i, at, spec.Rels[i], spec.Rhs[i])
			}
		case lp.GE:
			if at < spec.Rhs[i]-rtol {
				return errRow(i, at, spec.Rels[i], spec.Rhs[i])
			}
		case lp.EQ:
			if math.Abs(at-spec.Rhs[i]) > rtol {
				return errRow(i, at, spec.Rels[i], spec.Rhs[i])
			}
		}
	}
	return nil
}

func errBounds(j int, x, lo, hi float64) error {
	return fmt.Errorf("var %d = %g outside [%g, %g]", j, x, lo, hi)
}

func errRow(i int, at float64, rel lp.Rel, rhs float64) error {
	return fmt.Errorf("row %d: %g violates %v %g", i, at, rel, rhs)
}

// The retired kinds 6 and 7 (membership gossip) as v2 once encoded them:
// an announce of epoch 3 over two addresses and its ack. They stay in the
// fuzz seeds and corpus because receivers must keep skipping them.
var (
	retiredAnnounce = []byte("\x00\x00\x004\x02\x06\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x03\x00\x02\x00\x0e127.0.0.1:9001\x00\x0e127.0.0.1:9002")
	retiredAck = []byte("\x00\x00\x00\x12\x02\x07\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x03")
)

// FuzzWireFrame asserts the frame layer never panics on hostile bytes and
// that every successfully decoded consensus body survives a re-encode /
// re-decode round trip bit-identically.
func FuzzWireFrame(f *testing.F) {
	f.Add(wire.AppendHello(nil, 3, 1))
	f.Add(wire.AppendGoodbye(nil))
	f.Add(retiredAnnounce)
	f.Add(retiredAck)
	f.Add(wire.AppendConsensus(nil, 7, &wire.ConsensusMsg{
		Kind: wire.ConsensusRBC, Phase: 1, Origin: 2, Round: 4, Value: []float64{0.5, 0.25},
	}))
	f.Add([]byte{0, 0, 0, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Stream path: length-prefixed frames from a hostile reader.
		buf := make([]byte, 0, 64)
		r := bytes.NewReader(data)
		for {
			frame, nbuf, err := wire.ReadFrameInto(r, buf)
			buf = nbuf
			if err != nil {
				break
			}
			checkFrame(t, frame)
		}
		// Direct path: the bytes as one frame body.
		checkFrame(t, data)
	})
}

// checkFrame parses one frame and round-trips any decodable payload.
func checkFrame(t *testing.T, frame []byte) {
	h, body, err := wire.ParseFrame(frame)
	if err != nil {
		return
	}
	switch h.Kind {
	case wire.FrameHello:
		if peer, epoch, err := wire.ParseHello(body); err == nil {
			enc := wire.AppendHello(nil, peer, epoch)
			if _, ebody, eerr := wire.ParseFrame(enc[4:]); eerr != nil || !bytes.Equal(ebody, body) {
				t.Fatalf("hello round trip diverged: %v vs %v (%v)", ebody, body, eerr)
			}
		}
	case wire.FrameConsensus:
		var m wire.ConsensusMsg
		if err := wire.DecodeConsensus(&m, body); err != nil {
			return
		}
		enc := wire.AppendConsensus(nil, h.Instance, &m)
		eh, ebody, err := wire.ParseFrame(enc[4:])
		if err != nil {
			t.Fatalf("re-encoded consensus frame does not parse: %v", err)
		}
		if eh.Instance != h.Instance {
			t.Fatalf("instance diverged: %d vs %d", eh.Instance, h.Instance)
		}
		var m2 wire.ConsensusMsg
		if err := wire.DecodeConsensus(&m2, ebody); err != nil {
			t.Fatalf("re-encoded consensus body does not decode: %v", err)
		}
		if !consensusEqual(&m, &m2) {
			t.Fatalf("consensus round trip diverged: %+v vs %+v", m, m2)
		}
	}
}

func consensusEqual(a, b *wire.ConsensusMsg) bool {
	if a.Kind != b.Kind || a.Phase != b.Phase || a.Origin != b.Origin || a.Round != b.Round {
		return false
	}
	if len(a.Value) != len(b.Value) {
		return false
	}
	for i := range a.Value {
		if math.Float64bits(a.Value[i]) != math.Float64bits(b.Value[i]) {
			return false
		}
	}
	return true
}
