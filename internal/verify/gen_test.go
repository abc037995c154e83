package verify

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/lp"
	"repro/internal/wire"
)

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
	// Wire frames: valid frames of each kind plus truncations.
	hello := wire.AppendHello(nil, 5, 1)
	writeEntry("FuzzWireFrame", "hello", hello)
	writeEntry("FuzzWireFrame", "hello_truncated", hello[:len(hello)-2])
	announce := wire.AppendEpochAnnounce(nil, 3, []string{"127.0.0.1:9001", "127.0.0.1:9002"})
	writeEntry("FuzzWireFrame", "epoch_announce", announce)
	writeEntry("FuzzWireFrame", "epoch_announce_truncated", announce[:len(announce)-3])
	writeEntry("FuzzWireFrame", "epoch_ack", wire.AppendEpochAck(nil, 3))
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
// stream that far).
var (
	harvestedNearMiss = map[int]string{
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
