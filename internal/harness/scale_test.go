package harness

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/raceflag"
)

// e10RowPins are the serial-engine costs of one cold-cache run of each
// E10RowCells row, keyed "<variant>-n<N>", and of steadyRasyncCell, keyed
// "rasync-n13-steady": Γ-points solved from scratch, the Γ reuse rate and
// heap allocations. Solves and reuse are exact; mallocs vary by under 1 %
// between runs, and each pin is the largest of seven runs at GOMAXPROCS 1
// and 2 on a 2-CPU x86-64 Linux box with go1.24.
var e10RowPins = map[string]struct {
	solves  uint64
	reuse   float64
	mallocs uint64
}{
	"rsync-n15":         {solves: 73, reuse: 0.9131, mallocs: 5879},
	"approx-n15":        {solves: 9, reuse: 0.9938, mallocs: 9021},
	"rsync-n11":         {solves: 165, reuse: 0.7500, mallocs: 3678},
	"rasync-n13":        {solves: 9925, reuse: 0.7080, mallocs: 985337},
	"rasync-n13-steady": {solves: 15531, reuse: 0.6754, mallocs: 32124},
}

// steadyRasyncCell is the restricted-async f = 2 round in its steady state:
// the shape of the sim-rasync-f2 benchmark workload, with no adversary, so
// nearly every Γ-point is a certified lift and the row measures the lift
// path's own allocations. (E10's rasync row runs the mixed adversary, and
// most of its allocations are the lift rung's fallback.) It is pinned here
// rather than added to E10RowCells, which bvcbench renders.
var steadyRasyncCell = SweepCell{Variant: "rasync", D: 2, F: 2, N: 13, Adversary: "none", Delay: "shiftedexp", Seed: 1}

// TestE10RowBudgets pins the deterministic costs of the E10 γ-budget rows —
// where the incremental Γ layers must show — and of steadyRasyncCell, so a
// regression fails the build instead of waiting for a timing run: each row
// must verify, solve at most 3 % more Γ-points than pinned, keep its reuse
// rate within 0.02 of the pin, and allocate at most 25 % more than pinned.
// Each row runs on its own fresh serial engine, so the counts depend neither on GOMAXPROCS nor on what ran before, and
// the Γ counts are that engine's alone. The subtests stay sequential: the
// malloc pin reads the process-wide runtime.MemStats, which anything
// running alongside would inflate.
func TestE10RowBudgets(t *testing.T) {
	type row struct {
		key  string
		cell SweepCell
	}
	var rows []row
	for _, c := range E10RowCells {
		rows = append(rows, row{fmt.Sprintf("%s-n%d", c.Variant, c.N), c})
	}
	rows = append(rows, row{"rasync-n13-steady", steadyRasyncCell})
	for _, r := range rows {
		key := r.key
		c, err := r.cell.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		pin, ok := e10RowPins[key]
		if !ok {
			t.Fatalf("no pin for E10 row %s", key)
		}
		t.Run(c.Name(), func(t *testing.T) {
			eng := bvc.NewGammaEngine(1, true)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			out, err := runSweepCell(c, bvc.SimOptions{Engine: eng})
			runtime.ReadMemStats(&m1)
			gamma := eng.Counters()
			if err != nil {
				t.Fatal(err)
			}
			mallocs := m1.Mallocs - m0.Mallocs
			t.Logf("%s: solves %d, reuse %.4f, mallocs %d", key, gamma.Solves, gamma.ReuseRate(), mallocs)
			if !out.Verified {
				t.Errorf("not verified: %+v", out)
			}
			if limit := pin.solves * 103 / 100; gamma.Solves > limit {
				t.Errorf("Γ solves %d > %d (pin %d + 3%%)", gamma.Solves, limit, pin.solves)
			}
			if floor := pin.reuse - 0.02; gamma.ReuseRate() < floor {
				t.Errorf("Γ reuse rate %.4f < %.4f (pin %.4f − 0.02)", gamma.ReuseRate(), floor, pin.reuse)
			}
			if raceflag.Enabled {
				return // the race detector allocates on its own account
			}
			if limit := pin.mallocs * 125 / 100; mallocs > limit {
				t.Errorf("mallocs %d > %d (pin %d + 25%%)", mallocs, limit, pin.mallocs)
			}
		})
	}
}

// benchE10Row measures one E10 row cell cold-cache per iteration.
func benchE10Row(b *testing.B, c SweepCell) {
	for i := 0; i < b.N; i++ {
		bvc.ResetEngineCaches()
		out, err := RunSweepCell(c)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Verified {
			b.Fatal("cell did not verify")
		}
	}
}

func BenchmarkE10RowRsync15(b *testing.B)  { benchE10Row(b, E10RowCells[0]) }
func BenchmarkE10RowApprox15(b *testing.B) { benchE10Row(b, E10RowCells[1]) }

// TestEngineCountersAreThePerEngineWork: an engine's counters record only
// the work done on it. steadyRasyncCell runs concurrently on two serial
// engines and then alone on a third; all three must count the same Γ work.
func TestEngineCountersAreThePerEngineWork(t *testing.T) {
	run := func(eng *bvc.GammaEngine) (bvc.GammaCounters, error) {
		out, err := runSweepCell(steadyRasyncCell, bvc.SimOptions{Engine: eng})
		if err == nil && !out.Verified {
			err = fmt.Errorf("not verified: %+v", out)
		}
		return eng.Counters(), err
	}
	type result struct {
		counters bvc.GammaCounters
		err      error
	}
	results := make(chan result, 2)
	for range 2 {
		go func() {
			c, err := run(bvc.NewGammaEngine(1, true))
			results <- result{c, err}
		}()
	}
	var concurrent []bvc.GammaCounters
	for range 2 {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		concurrent = append(concurrent, r.counters)
	}
	alone, err := run(bvc.NewGammaEngine(1, true))
	if err != nil {
		t.Fatal(err)
	}
	if alone.Solves == 0 {
		t.Fatalf("alone: counters %+v, want Γ solves", alone)
	}
	for i, got := range concurrent {
		if got != alone {
			t.Errorf("concurrent engine %d: counters %+v, alone %+v", i, got, alone)
		}
	}
}
