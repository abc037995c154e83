package main

import (
	"io"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	// The cheap experiments; "all" is covered by the harness test suite.
	for _, exp := range []string{"e4", "e8", "f1", "f2"} {
		if err := run([]string{"-experiment", exp}, io.Discard); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

func TestRunCustomSeedAndTrials(t *testing.T) {
	if err := run([]string{"-experiment", "e3", "-seed", "5", "-trials", "3"}, io.Discard); err != nil {
		t.Errorf("e3 with custom flags: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "e42"}, io.Discard); err == nil {
		t.Error("unknown experiment: expected error")
	}
}
