package harness

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/raceflag"
)

// e10RowPins are the serial-engine costs of one cold-cache E10RowCells run,
// keyed "<variant>-n<N>": Γ-points solved from scratch, the Γ reuse rate
// and heap allocations. Solves and reuse are exact; mallocs vary by under
// 1 % between runs, and each pin is the largest of seven runs at GOMAXPROCS
// 1 and 2 on a 2-CPU x86-64 Linux box with go1.24.
var e10RowPins = map[string]struct {
	solves  uint64
	reuse   float64
	mallocs uint64
}{
	"rsync-n15":  {solves: 73, reuse: 0.9131, mallocs: 6469},
	"approx-n15": {solves: 9, reuse: 0.9938, mallocs: 9085},
	"rsync-n11":  {solves: 165, reuse: 0.7500, mallocs: 5017},
	"rasync-n13": {solves: 9925, reuse: 0.7080, mallocs: 1071047},
}

// TestE10RowBudgets pins the deterministic costs of the E10 γ-budget rows —
// where the incremental Γ layers must show — so a regression fails the
// build instead of waiting for a timing run: each row must verify, solve at
// most 3 % more Γ-points than pinned, keep its reuse rate within 0.02 of
// the pin, and allocate at most 25 % more than pinned. Both worker pools
// are forced serial, so the counts do not depend on GOMAXPROCS.
func TestE10RowBudgets(t *testing.T) {
	SetEngineOptions(1, false, 1)
	t.Cleanup(func() { SetEngineOptions(0, false, 0) })
	for _, c := range E10RowCells {
		c, err := c.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s-n%d", c.Variant, c.N)
		pin, ok := e10RowPins[key]
		if !ok {
			t.Fatalf("no pin for E10 row %s", key)
		}
		t.Run(c.Name(), func(t *testing.T) {
			bvc.ResetEngineCaches()
			var m0, m1 runtime.MemStats
			gamma0 := bvc.EngineGammaCounters()
			runtime.ReadMemStats(&m0)
			out, err := RunSweepCell(c)
			runtime.ReadMemStats(&m1)
			gamma := bvc.EngineGammaCounters().Sub(gamma0)
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
