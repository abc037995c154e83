package verify

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/lp"
	"repro/internal/wire"
)

// This file is the deterministic fuzz-input decoder: arbitrary bytes are
// mapped to adversarially degenerate linear programs — the PR 5 fragile
// corpus generalized into a generator. Four regimes, selected by the
// first byte:
//
//	mode 0 — raw quantized programs: coefficients drawn from a small
//	  palette (exact duplicates and rational ratios arise constantly, so
//	  parallel rows, twin columns, and singular submatrices are the common
//	  case, not the exception), with explicit duplicate-row and
//	  twin-column operators layered on top;
//	mode 1 — twin-column membership stacks: hull-membership blocks whose
//	  point sets contain exact and 1e-12-perturbed duplicates, replicated
//	  past the small-program cutoff so the revised core's LU path faces
//	  the resulting near-singular bases;
//	mode 2 — Lemma-1-threshold hulls: the joint Γ-intersection program of
//	  a 16-bit-quantized multiset at the critical size |Y| = (d+1)f+1,
//	  the exact shape of the fragile corpus (EncodeGammaInstance converts
//	  those instances into this encoding for the seed corpus);
//	mode 3 — contradicted joint hulls: the mode-2 joint Γ-intersection
//	  shape over a twin-degenerate point set, with one constraint row
//	  duplicated verbatim under a right-hand side offset by a small
//	  controlled margin (≥ 1e-4), so the program is genuinely infeasible
//	  by an amount far above every solver tolerance yet far below the
//	  data scale. Modes 1 and 2 are feasible by construction, which is
//	  why no input of theirs can pair a wrong dense-core Optimal with a
//	  revised-core refutation; mode 3 closes that gap — on its programs
//	  any dense Optimal is necessarily an uncertifiable verdict.
//
// Every byte stream decodes to *some* program (exhausted input reads
// zeros); inputs shorter than 4 bytes are rejected so the empty input does
// not dominate fuzz exploration.

// ProgramSpec is a decoded LP in neutral form: Build constructs a fresh
// lp.Problem from it, so the differential fuzzer can solve the identical
// program once per core.
type ProgramSpec struct {
	Lo, Hi []float64 // per-variable bounds
	Rows   [][]lp.Term
	Rels   []lp.Rel
	Rhs    []float64
	Sense  lp.Sense
	Obj    []lp.Term
}

// Build constructs the program.
func (s *ProgramSpec) Build() (*lp.Problem, error) {
	p := lp.NewProblem()
	for i := range s.Lo {
		if _, err := p.AddVar("x", s.Lo[i], s.Hi[i]); err != nil {
			return nil, err
		}
	}
	for i, row := range s.Rows {
		if err := p.AddConstraint("r", row, s.Rels[i], s.Rhs[i]); err != nil {
			return nil, err
		}
	}
	if err := p.SetObjective(s.Sense, s.Obj); err != nil {
		return nil, err
	}
	return p, nil
}

// NumRows returns the constraint count (the small-core cutoff indicator).
func (s *ProgramSpec) NumRows() int { return len(s.Rows) }

// cursor reads fuzz bytes, yielding zeros once exhausted so every input
// decodes.
type cursor struct {
	data []byte
	i    int
}

func (c *cursor) u8() byte {
	if c.i >= len(c.data) {
		return 0
	}
	b := c.data[c.i]
	c.i++
	return b
}

func (c *cursor) u16() uint16 {
	return uint16(c.u8())<<8 | uint16(c.u8())
}

// coef is the mode-0 coefficient palette: small exact values whose ratios
// collide, the breeding ground for degenerate pivots.
var coefPalette = []float64{0, 0.5, 1, 2, -0.5, -1, -2, 1}

// boundPalette gives per-variable (lo, hi) pairs.
var boundPalette = [][2]float64{
	{0, 4},
	{-2, 2},
	{0, math.Inf(1)},
	{-1, 1},
}

// DecodeProgram decodes fuzz bytes into an adversarially degenerate LP.
// It returns nil for inputs too short to carry a mode selector.
func DecodeProgram(data []byte) *ProgramSpec {
	if len(data) < 4 {
		return nil
	}
	c := &cursor{data: data}
	switch c.u8() % 4 {
	case 0:
		return decodeRaw(c)
	case 1:
		return decodeTwinMembership(c)
	case 2:
		return decodeThresholdGamma(c)
	default:
		return decodeNearMiss(c)
	}
}

// decodeRaw builds a palette-coefficient program with explicit duplicate-
// row and twin-column operators.
func decodeRaw(c *cursor) *ProgramSpec {
	nv := 2 + int(c.u8()%10)
	nr := 4 + int(c.u8()%40)
	s := &ProgramSpec{Sense: lp.Minimize}
	for j := 0; j < nv; j++ {
		b := boundPalette[c.u8()%byte(len(boundPalette))]
		s.Lo = append(s.Lo, b[0])
		s.Hi = append(s.Hi, b[1])
	}
	// Dense coefficient matrix in palette values; rows may duplicate or
	// scale the previous row, columns may twin an earlier column.
	mat := make([][]float64, nr)
	for i := range mat {
		mat[i] = make([]float64, nv)
		switch kind := c.u8() % 4; {
		case kind == 2 && i > 0: // exact duplicate of the previous row
			copy(mat[i], mat[i-1])
		case kind == 3 && i > 0: // scaled copy (parallel constraint)
			for j, a := range mat[i-1] {
				mat[i][j] = 2 * a
			}
		default:
			for j := range mat[i] {
				mat[i][j] = coefPalette[c.u8()%byte(len(coefPalette))]
			}
		}
	}
	// Twin columns: copy column src over column dst.
	for t := int(c.u8() % 3); t > 0; t-- {
		src, dst := int(c.u8())%nv, int(c.u8())%nv
		for i := range mat {
			mat[i][dst] = mat[i][src]
		}
	}
	for i := range mat {
		row := make([]lp.Term, 0, nv)
		for j, a := range mat[i] {
			if a != 0 {
				row = append(row, lp.Term{Var: lp.VarID(j), Coeff: a})
			}
		}
		if len(row) == 0 {
			continue
		}
		s.Rows = append(s.Rows, row)
		s.Rels = append(s.Rels, []lp.Rel{lp.LE, lp.GE, lp.EQ}[c.u8()%3])
		s.Rhs = append(s.Rhs, coefPalette[c.u8()%byte(len(coefPalette))]*float64(1+c.u8()%3))
	}
	if c.u8()%2 == 1 {
		s.Sense = lp.Maximize
	}
	for j := 0; j < nv; j++ {
		if a := coefPalette[c.u8()%byte(len(coefPalette))]; a != 0 {
			s.Obj = append(s.Obj, lp.Term{Var: lp.VarID(j), Coeff: a})
		}
	}
	// Bounded boxes unless every variable drew the one unbounded palette
	// entry, so Unbounded verdicts stay reachable but rare.
	return s
}

// decodeTwinMembership stacks hull-membership blocks with twinned points.
func decodeTwinMembership(c *cursor) *ProgramSpec {
	d := 1 + int(c.u8()%3)
	f := 1 + int(c.u8()%2)
	pts := twinPoints(c, d, (d+1)*f+1)
	n := len(pts)
	z := make([]float64, d)
	if c.u8()%2 == 0 {
		for _, p := range pts { // centroid: inside every hull
			for l := range z {
				z[l] += p[l] / float64(n)
			}
		}
	} else {
		for l := range z { // far corner: outside unless the hull is huge
			z[l] = 2 + float64(c.u8()%3)
		}
	}
	return stackMembershipBlocks(pts, z, d)
}

// twinPoints draws n points in [0,1]^d with exact and 1e-12-perturbed
// duplicates, the mode-1/3 degeneracy source.
func twinPoints(c *cursor, d, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		ctrl := c.u8()
		if i > 0 && ctrl%4 == 0 { // exact twin of an earlier point
			pts[i] = append([]float64(nil), pts[int(ctrl/4)%i]...)
			continue
		}
		if i > 0 && ctrl%4 == 1 { // near-twin: 1e-12 perturbation
			src := pts[int(ctrl/4)%i]
			pt := append([]float64(nil), src...)
			pt[int(c.u8())%d] += 1e-12
			pts[i] = pt
			continue
		}
		pt := make([]float64, d)
		for l := range pt {
			pt[l] = float64(c.u16()) / 65535
		}
		pts[i] = pt
	}
	return pts
}

// stackMembershipBlocks replicates the membership block past the
// small-core cutoff so the revised LU path, not the small-program tableau
// kernel, faces the twins.
func stackMembershipBlocks(pts [][]float64, z []float64, d int) *ProgramSpec {
	blocks := 1 + (smallCutoffRows / (1 + 2*d))
	s := &ProgramSpec{Sense: lp.Minimize}
	for b := 0; b < blocks; b++ {
		appendMembershipBlock(s, pts, z, 1e-7)
	}
	return s
}

// decodeNearMiss builds the mode-2 joint Γ-intersection program — the
// shared-z, every-(n−f)-group shape where the dense core demonstrably
// grinds (every committed iteration-cap / refuted-infeasible /
// shared-verdict trigger is a mode-2-style program) — over a mode-1
// twin-degenerate point set, then *contradicts* it: one constraint row is
// duplicated verbatim with its right-hand side offset by a margin drawn
// from {1e-4, 3e-4, 1e-3}. The twin pair is jointly unsatisfiable, so the
// program is infeasible by at least margin/2 — far above every solver and
// certificate tolerance (the feasibility certificate's scaled rtol tops
// out near 5e-6 on these rows), yet far below the data scale, and
// discovering the contradiction takes a full Phase-1 resolution of the
// degenerate joint geometry, not a local bound check. Modes 1 and 2 are
// feasible by construction, which is why none of their inputs can pair a
// wrong dense-core Optimal with a revised-core refutation; on mode-3
// programs any dense Optimal is necessarily an uncertifiable verdict.
// d is fixed at 2 (64 rows): the d = 3 shape's 144+ rows sit past
// denseRowCap, where the differential harness never runs the dense core.
func decodeNearMiss(c *cursor) *ProgramSpec {
	const d, f = 2, 2
	pts := twinPoints(c, d, (d+1)*f+1)
	margin := []float64{1e-4, 3e-4, 1e-3}[c.u8()%3]
	rowPick := int(c.u8())
	s := &ProgramSpec{Sense: lp.Minimize}
	zbase := len(s.Lo)
	for l := 0; l < d; l++ {
		s.Lo = append(s.Lo, -4)
		s.Hi = append(s.Hi, 4)
	}
	appendJointGammaGroups(s, pts, f, zbase)
	k := rowPick % len(s.Rows)
	s.Rows = append(s.Rows, append([]lp.Term(nil), s.Rows[k]...))
	s.Rels = append(s.Rels, lp.EQ)
	s.Rhs = append(s.Rhs, s.Rhs[k]+margin)
	return s
}

// smallCutoffRows mirrors lp's small-program cutoff (32 rows): programs
// meant for the revised core must exceed it.
const smallCutoffRows = 32

// appendMembershipBlock adds one convex-weights block reproducing z.
func appendMembershipBlock(s *ProgramSpec, pts [][]float64, z []float64, tol float64) {
	base := len(s.Lo)
	sum := make([]lp.Term, len(pts))
	for i := range pts {
		s.Lo = append(s.Lo, 0)
		s.Hi = append(s.Hi, math.Inf(1))
		sum[i] = lp.Term{Var: lp.VarID(base + i), Coeff: 1}
	}
	s.Rows = append(s.Rows, sum)
	s.Rels = append(s.Rels, lp.EQ)
	s.Rhs = append(s.Rhs, 1)
	for l := range z {
		terms := make([]lp.Term, 0, len(pts))
		for i := range pts {
			if pts[i][l] != 0 {
				terms = append(terms, lp.Term{Var: lp.VarID(base + i), Coeff: pts[i][l]})
			}
		}
		if len(terms) == 0 {
			// Every point is zero in this coordinate: the convex hull is
			// flat there, so z is reachable iff z[l] ≈ 0. Encode the
			// infeasible case exactly (Σα = 2 conflicts with Σα = 1) and
			// skip the vacuous one.
			if z[l]-tol > 0 || z[l]+tol < 0 {
				s.Rows = append(s.Rows, []lp.Term{{Var: lp.VarID(base), Coeff: 1}})
				s.Rels = append(s.Rels, lp.EQ)
				s.Rhs = append(s.Rhs, 2)
			}
			continue
		}
		s.Rows = append(s.Rows, terms)
		s.Rels = append(s.Rels, lp.GE)
		s.Rhs = append(s.Rhs, z[l]-tol)
		hi := append([]lp.Term(nil), terms...)
		s.Rows = append(s.Rows, hi)
		s.Rels = append(s.Rels, lp.LE)
		s.Rhs = append(s.Rhs, z[l]+tol)
	}
}

// decodeThresholdGamma builds the joint Γ-intersection feasibility program
// of a quantized multiset at the Lemma-1 threshold size.
func decodeThresholdGamma(c *cursor) *ProgramSpec {
	d := 2 + int(c.u8()%2)
	f := 2
	n := (d+1)*f + 1
	pts := make([][]float64, n)
	for i := range pts {
		pt := make([]float64, d)
		for l := range pt {
			pt[l] = float64(c.u16()) / 65535
		}
		pts[i] = pt
	}
	s := &ProgramSpec{Sense: lp.Minimize}
	zbase := len(s.Lo)
	for l := 0; l < d; l++ {
		s.Lo = append(s.Lo, -10)
		s.Hi = append(s.Hi, 10)
	}
	appendJointGammaGroups(s, pts, f, zbase)
	return s
}

// appendJointGammaGroups appends the joint Γ-intersection constraint
// groups: for every (n−f)-subset of pts, fresh convex weights whose
// combination reproduces the shared z variables at zbase.
func appendJointGammaGroups(s *ProgramSpec, pts [][]float64, f, zbase int) {
	d := len(pts[0])
	keep := len(pts) - f
	for _, idx := range combinations(len(pts), keep) {
		base := len(s.Lo)
		sum := make([]lp.Term, keep)
		for i := 0; i < keep; i++ {
			s.Lo = append(s.Lo, 0)
			s.Hi = append(s.Hi, math.Inf(1))
			sum[i] = lp.Term{Var: lp.VarID(base + i), Coeff: 1}
		}
		s.Rows = append(s.Rows, sum)
		s.Rels = append(s.Rels, lp.EQ)
		s.Rhs = append(s.Rhs, 1)
		for l := 0; l < d; l++ {
			terms := make([]lp.Term, 0, keep+1)
			for i, j := range idx {
				if pts[j][l] != 0 {
					terms = append(terms, lp.Term{Var: lp.VarID(base + i), Coeff: pts[j][l]})
				}
			}
			terms = append(terms, lp.Term{Var: lp.VarID(zbase + l), Coeff: -1})
			s.Rows = append(s.Rows, terms)
			s.Rels = append(s.Rels, lp.EQ)
			s.Rhs = append(s.Rhs, 0)
		}
	}
}

// EncodeGammaInstance converts a fragile-corpus instance (the Lemma-1
// threshold multisets of internal/safearea's fragile tests: d ∈ {2,3},
// f = 2, coordinates from a seeded uniform stream) into the mode-2 fuzz
// encoding, 16-bit quantized. The decoded program is the joint
// Γ-intersection LP of the quantized multiset.
func EncodeGammaInstance(d int, coords [][]float64) []byte {
	out := []byte{2, byte(d - 2)}
	for _, pt := range coords {
		for _, x := range pt {
			q := uint16(math.Round(x * 65535))
			out = binary.BigEndian.AppendUint16(out, q)
		}
	}
	return out
}

// TestDecodeProgramTotal: every byte string of length ≥ 4 decodes to a
// buildable, solvable-or-cleanly-rejected program, and decoding is a pure
// function of the bytes.
func TestDecodeProgramTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		spec := DecodeProgram(data)
		again := DecodeProgram(data)
		if (spec == nil) != (again == nil) {
			t.Fatalf("trial %d: decode not deterministic", trial)
		}
		if spec == nil {
			if len(data) >= 4 {
				t.Fatalf("trial %d: %d-byte input rejected", trial, len(data))
			}
			continue
		}
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("trial %d: decoded program does not build: %v", trial, err)
		}
		if _, err := p.Solve(); err != nil {
			// Solver errors (stalls) are legitimate on adversarial input;
			// the differential target compares them across cores instead.
			t.Logf("trial %d: solve error: %v", trial, err)
		}
	}
}

// TestDecodeModesReachDegenerateShapes pins the generator's intent: mode 1
// stacks rows past the small-core cutoff and mode 2 reproduces the
// Lemma-1-threshold joint program shape.
func TestDecodeModesReachDegenerateShapes(t *testing.T) {
	m1 := DecodeProgram([]byte{1, 1, 0, 2, 0x80, 0x00, 3, 0x40, 0x00, 2, 0x20, 0x00})
	if m1 == nil || m1.NumRows() <= smallCutoffRows {
		t.Fatalf("mode 1 program has %d rows, want > %d", rowsOf(m1), smallCutoffRows)
	}
	pts := make([][]float64, 7)
	rng := rand.New(rand.NewSource(3))
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	m2 := DecodeProgram(EncodeGammaInstance(2, pts))
	// d=2, f=2, n=7: C(7,5) groups × (1 + d) rows each.
	if want := 21 * 3; m2 == nil || m2.NumRows() != want {
		t.Fatalf("mode 2 program has %d rows, want %d", rowsOf(m2), want)
	}
	sol, err := mustSolve(m2)
	if err != nil {
		t.Fatalf("threshold Γ program: %v", err)
	}
	t.Logf("threshold Γ verdict: %v", sol.Status)
}

func rowsOf(s *ProgramSpec) int {
	if s == nil {
		return -1
	}
	return s.NumRows()
}

func mustSolve(s *ProgramSpec) (*lp.Solution, error) {
	p, err := s.Build()
	if err != nil {
		return nil, err
	}
	return p.Solve()
}

// TestRegenSeedCorpus regenerates the committed fuzz seed corpus under
// testdata/fuzz/ when VERIFY_REGEN_CORPUS=1 is set: the PR 5 fragile-
// corpus instances (Lemma-1-threshold multisets, d ∈ {2,3}, f = 2,
// seeded uniform coordinates) converted to the mode-2 fuzz encoding, plus
// hand-picked raw/twin seeds. Committed entries are replayed by every
// ordinary `go test` run of this package.
func TestRegenSeedCorpus(t *testing.T) {
	if os.Getenv("VERIFY_REGEN_CORPUS") == "" {
		t.Skip("set VERIFY_REGEN_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	writeEntry := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Fragile-corpus conversions: the same construction as internal/
	// safearea's fragile tests — size (d+1)f+1, f=2, coords from a seeded
	// uniform stream — quantized into the mode-2 encoding.
	for _, d := range []int{2, 3} {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := (d+1)*2 + 1
			pts := make([][]float64, n)
			for i := range pts {
				pt := make([]float64, d)
				for l := range pt {
					pt[l] = rng.Float64()
				}
				pts[i] = pt
			}
			writeEntry("FuzzLPDifferential",
				"fragile_d"+strconv.Itoa(d)+"_s"+strconv.FormatInt(seed, 10),
				EncodeGammaInstance(d, pts))
		}
	}
	// Fragility-class triggers: inputs on which the dense core demonstrably
	// loses to the revised core, found by a seeded random search over the
	// fuzz encoding (seed 1, draw pattern below) and pinned here by trial
	// index rather than by pasted bytes so the corpus regenerates
	// byte-identically. TestFragileCorpusBudget counts these by class.
	harvested := map[int]string{
		3537:  "refuted_infeasible_0",
		7807:  "iteration_cap_0",
		11334: "shared_verdict_0",
		11515: "refuted_infeasible_1",
		12090: "shared_verdict_1",
		13291: "iteration_cap_1",
		14272: "shared_verdict_2",
		21490: "refuted_infeasible_2",
		39811: "iteration_cap_2",
	}
	hrng := rand.New(rand.NewSource(1))
	for trial := 0; trial <= 39811; trial++ {
		data := uniformTrial(hrng)
		if name, ok := harvested[trial]; ok {
			writeEntry("FuzzLPDifferential", "fragile_"+name, data)
		}
	}
	// The near-miss needle stream (seed 2, mode-3 inputs): contradicted
	// twin-degenerate joint-Γ programs, the one regime where a wrong
	// Optimal from either core is necessarily uncertifiable (see
	// nearMissNeedleTrial).
	brng := rand.New(rand.NewSource(2))
	for trial := 0; trial <= lastNearMissNeedle; trial++ {
		data := nearMissNeedleTrial(brng)
		if name, ok := harvestedNearMiss[trial]; ok {
			writeEntry("FuzzLPDifferential", "fragile_"+name, data)
		}
	}
	// Raw palette programs with duplicate rows and twin columns.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		data := make([]byte, 40+rng.Intn(80))
		rng.Read(data)
		data[0] = 0
		writeEntry("FuzzLPDifferential", "raw_"+strconv.Itoa(i), data)
	}
	// Twin-column membership stacks.
	for i := 0; i < 4; i++ {
		data := make([]byte, 30+rng.Intn(40))
		rng.Read(data)
		data[0] = 1
		writeEntry("FuzzLPDifferential", "twin_"+strconv.Itoa(i), data)
	}
	// Wire frames: valid frames of each kind, the retired kinds, and
	// truncations.
	hello := wire.AppendHello(nil, 5, 1)
	writeEntry("FuzzWireFrame", "hello", hello)
	writeEntry("FuzzWireFrame", "hello_truncated", hello[:len(hello)-2])
	writeEntry("FuzzWireFrame", "epoch_announce", retiredAnnounce)
	writeEntry("FuzzWireFrame", "epoch_announce_truncated", retiredAnnounce[:len(retiredAnnounce)-3])
	writeEntry("FuzzWireFrame", "epoch_ack", retiredAck)
	rbc := wire.AppendConsensus(nil, 42, &wire.ConsensusMsg{
		Kind: wire.ConsensusRBC, Phase: 2, Origin: 1, Round: 3, Value: []float64{0.125, -0.5, 1e-9},
	})
	writeEntry("FuzzWireFrame", "rbc", rbc)
	writeEntry("FuzzWireFrame", "rbc_truncated", rbc[:len(rbc)-5])
	writeEntry("FuzzWireFrame", "report", wire.AppendConsensus(nil, 9, &wire.ConsensusMsg{
		Kind: wire.ConsensusReport, Origin: 4, Round: 2,
	}))
	writeEntry("FuzzWireFrame", "oversize_claim", []byte{0xff, 0xff, 0xff, 0xff, 2, 2, 0})
}

// uniformTrial draws one input of the uniform harvest stream: arbitrary
// bytes with a uniformly chosen decoder mode. The draw pattern is frozen —
// the harvested table pins corpus entries by index into this stream.
func uniformTrial(hrng *rand.Rand) []byte {
	data := make([]byte, 8+hrng.Intn(90))
	hrng.Read(data)
	data[0] = byte(hrng.Intn(3))
	return data
}

// nearMissNeedleTrial draws one input of the near-miss needle stream:
// mode-3 joint-Γ programs over twin-degenerate points, contradicted by a
// duplicated row whose rhs is offset a hair above the certificate floor
// (see decodeNearMiss). Genuinely infeasible degenerate programs are the
// one regime where a wrong Optimal is necessarily uncertifiable — the
// uncertified-optimum classes the uniform stream never reaches (it
// scanned clean through trial 400000, because its infeasible programs
// all miss by O(1) margins no drift can hide). The draw pattern is
// frozen, as above.
func nearMissNeedleTrial(brng *rand.Rand) []byte {
	data := make([]byte, 16+brng.Intn(82))
	brng.Read(data)
	data[0] = 3
	return data
}

// harvestedNearMiss pins near-miss needle-stream triggers by trial index,
// exactly as the harvested table does for the uniform stream.
// lastNearMissNeedle is the highest pinned index (the regen walks the
// stream that far). Trial 571 is no fragility trigger: it is the committed
// input on which the revised kernel's first attempt hits the stall cap and
// the perturbed retry then solves it, so its replay fails once the retry
// is removed. Without the stall cap the first attempt runs into the
// iteration cap instead, and the solve takes about twenty times as long.
var (
	harvestedNearMiss = map[int]string{
		571:  "revised_stall_cap_then_perturbed_retry",
		1121: "uncertified_optimum_0",
		2077: "revised_uncertified_0",
	}
	lastNearMissNeedle = 2077
)

// TestHarvestFragilityTriggers is the search that populates the harvested
// tables in TestRegenSeedCorpus: it walks one of the deterministic trial
// streams (VERIFY_HARVEST_STREAM: "uniform", seed 1 — the default — or
// "nearmiss", seed 2) from VERIFY_HARVEST_FROM (default 0) up to
// VERIFY_HARVEST_TO and logs the trial index of every fragility sighting,
// classified by the silent twin of the differential body. To pin a new
// trigger, run the harvest, copy the logged trial index into the stream's
// harvested map with the next free per-class suffix, bump
// fragilityBudget, and regenerate with VERIFY_REGEN_CORPUS=1. Gated by
// VERIFY_HARVEST=1 — the scan solves two LPs per trial and is far too
// slow for ordinary runs.
func TestHarvestFragilityTriggers(t *testing.T) {
	if os.Getenv("VERIFY_HARVEST") == "" {
		t.Skip("set VERIFY_HARVEST=1 (and VERIFY_HARVEST_FROM/TO/STREAM) to scan a trial stream for fragility triggers")
	}
	from, to := 0, 60000
	if v := os.Getenv("VERIFY_HARVEST_FROM"); v != "" {
		from, _ = strconv.Atoi(v)
	}
	if v := os.Getenv("VERIFY_HARVEST_TO"); v != "" {
		to, _ = strconv.Atoi(v)
	}
	draw := uniformTrial
	rng := rand.New(rand.NewSource(1))
	if os.Getenv("VERIFY_HARVEST_STREAM") == "nearmiss" {
		draw = nearMissNeedleTrial
		rng = rand.New(rand.NewSource(2))
	}
	found := make(map[string]int)
	for trial := 0; trial <= to; trial++ {
		data := draw(rng)
		if trial < from {
			continue
		}
		if class := classifyFragility(data); class != "" {
			found[class]++
			t.Logf("trial %d: %s (sighting #%d in scan)", trial, class, found[class])
		}
	}
	t.Logf("scanned trials [%d, %d]: %v", from, to, found)
}
