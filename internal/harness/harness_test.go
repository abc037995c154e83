package harness

import (
	"math/rand"
	"strings"
	"testing"

	"repro"
)

func TestE1SyncNecessity(t *testing.T) {
	tbl, err := E1SyncNecessity(1)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E1 failed:\n%s", tbl)
	}
	if len(tbl.Rows) != 10 { // d ∈ 1..5 × f ∈ 1..2
		t.Errorf("rows = %d, want 10", len(tbl.Rows))
	}
}

func TestE2ExactSufficiency(t *testing.T) {
	tbl, err := E2ExactSufficiency(2, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E2 failed:\n%s", tbl)
	}
	if len(tbl.Rows) != 5*6 { // 5 (d,f) pairs × 6 adversaries
		t.Errorf("rows = %d, want 30", len(tbl.Rows))
	}
}

func TestE3TverbergLemma(t *testing.T) {
	tbl, err := E3TverbergLemma(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E3 failed:\n%s", tbl)
	}
}

func TestE4AsyncNecessity(t *testing.T) {
	tbl, err := E4AsyncNecessity()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E4 failed:\n%s", tbl)
	}
	if len(tbl.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(tbl.Rows))
	}
}

func TestE5AsyncConvergence(t *testing.T) {
	tbl, err := E5AsyncConvergence(5, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E5 failed:\n%s", tbl)
	}
}

func TestE6RestrictedSync(t *testing.T) {
	tbl, err := E6RestrictedSync(6, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E6 failed:\n%s", tbl)
	}
}

func TestE7RestrictedAsync(t *testing.T) {
	tbl, err := E7RestrictedAsync(7, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E7 failed:\n%s", tbl)
	}
}

func TestE8CoordinateWise(t *testing.T) {
	tbl, err := E8CoordinateWise(8, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E8 failed:\n%s", tbl)
	}
}

func TestE9WitnessAblation(t *testing.T) {
	tbl, err := E9WitnessAblation(9)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E9 failed:\n%s", tbl)
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(tbl.Rows))
	}
}

func TestE10ScaleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("n=13 scale sweep in -short mode")
	}
	tbl, err := E10ScaleSweep(10, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("E10 failed:\n%s", tbl)
	}
	if len(tbl.Rows) != 11 { // 3 exact grids × 2 adversary sets + 1 async row + 4 γ-budget rows
		t.Errorf("rows = %d, want 11", len(tbl.Rows))
	}
}

func TestF1Heptagon(t *testing.T) {
	tbl, err := F1Heptagon()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("F1 failed:\n%s", tbl)
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("rows = %d, want 3 blocks", len(tbl.Rows))
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "T", Title: "demo", Claim: "c",
		Columns: []string{"a", "bb"},
		Notes:   []string{"n1"},
		Pass:    true,
	}
	tbl.AddRow(1, "x")
	tbl.AddRow(2.5, "longer")
	s := tbl.String()
	for _, want := range []string{"T — demo [PASS]", "claim: c", "a", "bb", "longer", "note: n1", "2.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q in:\n%s", want, s)
		}
	}
	tbl.Pass = false
	if !strings.Contains(tbl.String(), "[FAIL]") {
		t.Error("FAIL verdict missing")
	}
}

func TestWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := UniformInputs(rng, 5, 3, -1, 1)
	if len(u) != 5 || len(u[0]) != 3 {
		t.Errorf("uniform shape wrong")
	}
	for _, v := range u {
		for _, x := range v {
			if x < -1 || x > 1 {
				t.Errorf("uniform out of range: %v", v)
			}
		}
	}
	s := SimplexInputs(rng, 4, 3)
	for _, v := range s {
		var total float64
		for _, x := range v {
			if x < 0 {
				t.Errorf("simplex negative: %v", v)
			}
			total += x
		}
		if total < 0.999 || total > 1.001 {
			t.Errorf("simplex sum = %g", total)
		}
	}
}

func TestSpreadInf(t *testing.T) {
	if got := spreadInf(nil); got != 0 {
		t.Errorf("empty spread = %g", got)
	}
	got := spreadInf([]Vector2{{0, 0}, {1, 3}, {0.5, -1}})
	if got != 4 {
		t.Errorf("spread = %g, want 4", got)
	}
}

// Vector2 aliases the public vector type for test brevity.
type Vector2 = []float64

func TestF2ConvergenceSeries(t *testing.T) {
	tbl, err := F2ConvergenceSeries(12, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Errorf("F2 failed:\n%s", tbl)
	}
	if len(tbl.Rows) == 0 {
		t.Error("F2 has no series rows")
	}
}

func TestAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	tables, err := All(11, bvc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Fatalf("tables = %d, want 12", len(tables))
	}
	for _, tbl := range tables {
		if !tbl.Pass {
			t.Errorf("%s failed:\n%s", tbl.ID, tbl)
		}
	}
}

// TestAllIdenticalAcrossEngineOptions: the default engine and serial
// uncached Γ solves render the whole suite byte for byte the same; the
// engine options only move work and memory around.
func TestAllIdenticalAcrossEngineOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("three full experiment sweeps in -short mode")
	}
	render := func(opts bvc.SimOptions) string {
		bvc.ResetEngineCaches()
		tables, err := All(1, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tbl := range tables {
			b.WriteString(tbl.String())
		}
		return b.String()
	}
	want := render(bvc.SimOptions{})
	for _, opt := range []struct {
		name string
		opts bvc.SimOptions
	}{
		{"serial uncached Γ", bvc.SimOptions{Engine: bvc.NewGammaEngine(1, false)}},
	} {
		got := render(opt.opts)
		if got == want {
			continue
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Errorf("%s: output differs from the default engine's at byte %d:\n got …%s\nwant …%s",
			opt.name, i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
	}
}
