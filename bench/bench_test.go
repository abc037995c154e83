package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	bvc "repro"
)

// Equal seeds must give byte-identical inputs, different seeds different
// ones: -seed is the only source of randomness.
func TestSeedDeterminesInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := inputsHash(w, 7, 64), inputsHash(w, 7, 64), inputsHash(w, 8, 64)
		if a != b {
			t.Errorf("%s: seed 7 hashed %x then %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
	}
}

// The exact counts of a sim execution are a function of its seed alone.
func TestSimCountsRepeatExactly(t *testing.T) {
	w := findWorkload("sim-approx-reuse")
	s := simSeed(7, 0)
	out1, g1, err := execute(w, s)
	if err != nil {
		t.Fatal(err)
	}
	out2, g2, err := execute(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || out1.Messages != out2.Messages {
		t.Errorf("same seed, different counts: %+v/%d then %+v/%d", g1, out1.Messages, g2, out2.Messages)
	}
	if !out1.Verified {
		t.Errorf("execution not verified (%s)", out1.VerifyMode)
	}
}

// failed can only become non-zero if the checker rejects a wrong decision.
func TestCheckInstanceRejectsCorruptDecisions(t *testing.T) {
	inputs := liveInputs(7, 1, liveN, 2)
	centre := make(bvc.Vector, 2)
	for _, v := range inputs {
		centre[0] += v[0] / liveN
		centre[1] += v[1] / liveN
	}
	good := make([]bvc.Vector, liveN)
	for i := range good {
		good[i] = centre
	}
	if err := checkInstance(inputs, good); err != nil {
		t.Fatalf("valid decisions rejected: %v", err)
	}
	outside := append([]bvc.Vector{{2, 2}}, good[1:]...)
	if checkInstance(inputs, outside) == nil {
		t.Error("a decision outside the hull of the inputs was accepted")
	}
	if checkInstance(inputs, inputs) == nil {
		t.Error("decisions as far apart as the inputs were accepted")
	}
	if checkInstance(inputs, good[1:]) == nil {
		t.Error("a missing decision was accepted")
	}
}

// The replay must decide validly, and its trace must be a forest whose
// self times add up to the roots' durations.
func TestReplayTraceIsConsistent(t *testing.T) {
	rec := newRecorder(1 << 16)
	st, err := replay(findWorkload("live-wan-n5-crash1"), 7, rec)
	if err != nil {
		t.Fatal(err)
	}
	if st.frames == 0 || st.steps == 0 {
		t.Fatalf("replay moved no traffic: %+v", st)
	}
	var roots, selfSum int64
	for i, s := range rec.spans {
		if s.parent >= int32(i) || s.parent < -1 {
			t.Fatalf("span %d (%s) has parent %d", i, s.name, s.parent)
		}
		if s.end < s.start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.name)
		}
		if s.parent == -1 {
			roots += int64(s.end - s.start)
		}
	}
	self, _ := rec.selfTimes()
	for _, d := range self {
		selfSum += int64(d)
	}
	if selfSum != roots {
		t.Errorf("self times sum to %d ns, root spans to %d ns", selfSum, roots)
	}
}

// BENCHMARK.json declares the benchmark to the driver; it must repeat the
// tables in this package and stay inside the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range workloads {
		d := decl.Workloads[i]
		if d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q/%q, defined %q/%q", i, d.Name, d.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: name or why outside the driver's limits (why is %d characters)", w.name, len(w.why))
		}
	}
	same := func(kind string, declared []jm, defined []metric, bounded bool) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		for i, m := range defined {
			d := declared[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, d, m)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s %q: name or unit %q outside the driver's limits", kind, m.name, m.unit)
			}
			switch {
			case !bounded && d.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, m.name)
			case bounded && (d.Bound == nil || *d.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s %q: bound declared %v, defined %g", kind, m.name, d.Bound, m.bound)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", decl.RunSeconds, decl.Paths)
	}
}
