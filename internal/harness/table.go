// Package harness turns the paper's claims into runnable experiments: each
// experiment E1–E10 and figure F1/F2 executes workloads on the simulator,
// measures outcomes, and renders a table comparing the paper's claim with
// the measured result (the README's experiment table summarizes them).
// cmd/bvcbench regenerates all of them; the test suite asserts their
// pass/fail verdicts. The package also provides the shared experiment
// registry (Runners, ExperimentOrder) and the sweep-cell substrate the grid
// test, the E10 row budget test and the bench/ simulator workloads execute
// (SweepCell, RunSweepCell, GammaBudget).
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's rendered result.
type Table struct {
	// ID is the experiment identifier (E1…E9, F1).
	ID string
	// Title is a one-line description.
	Title string
	// Claim quotes the paper's claim under test.
	Claim string
	// Columns and Rows hold the tabular results.
	Columns []string
	Rows    [][]string
	// Notes carries measurement commentary (one line each).
	Notes []string
	// Pass reports whether every checked assertion held.
	Pass bool
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	verdict := "PASS"
	if !t.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s — %s [%s]\n", t.ID, t.Title, verdict)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	if len(t.Columns) > 0 {
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteByte('\n')
		}
		writeRow(t.Columns)
		for i, wdt := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", wdt))
		}
		b.WriteByte('\n')
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("table %s: render error: %v", t.ID, err)
	}
	return b.String()
}

func check(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
