// Command bvcbench regenerates the paper-reproduction experiment tables
// E1–E10 and figures F1/F2 (the README's experiment table summarizes what
// each demonstrates).
//
// Usage:
//
//	bvcbench                     # run everything
//	bvcbench -experiment e5      # one experiment
//	bvcbench -seed 7             # change the master seed
//
// Tables are deterministic for a fixed seed, and the exit status is nonzero
// if any experiment fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bvcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bvcbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment to run: all, e1…e10, f1, f2")
	seed := fs.Int64("seed", 1, "master random seed")
	trials := fs.Int("trials", 20, "trial count for statistical experiments (E3)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	runners := harness.Runners(*seed, *trials, bvc.SimOptions{})

	// ExperimentOrder and Runners must describe the same experiment set;
	// catching a drift here beats silently dropping an experiment from the
	// full run (or calling a nil runner).
	if len(harness.ExperimentOrder) != len(runners) {
		return fmt.Errorf("internal: ExperimentOrder lists %d experiments, Runners %d", len(harness.ExperimentOrder), len(runners))
	}
	for _, n := range harness.ExperimentOrder {
		if _, ok := runners[n]; !ok {
			return fmt.Errorf("internal: ExperimentOrder entry %q has no runner", n)
		}
	}

	name := strings.ToLower(*experiment)
	if name == "all" {
		tables, err := harness.All(*seed, bvc.SimOptions{})
		if err != nil {
			return err
		}
		allPass := true
		for _, tbl := range tables {
			if err := tbl.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if !tbl.Pass {
				allPass = false
			}
		}
		if !allPass {
			return fmt.Errorf("one or more experiments failed")
		}
		return nil
	}

	r, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want all, e1…e10, f1, f2)", name)
	}
	tbl, err := r()
	if err != nil {
		return err
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if !tbl.Pass {
		return fmt.Errorf("experiment %s failed", strings.ToUpper(name))
	}
	return nil
}
