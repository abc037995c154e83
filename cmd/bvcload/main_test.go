package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestLoadSummary checks the human-readable mode and the shed policy path.
func TestLoadSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rate", "250", "-instances", "12", "-policy", "shed"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"instances  12", "latency", "errors     0 instance"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

// TestLoadChurn drives load across a live membership replacement: one
// process is retired mid-run and its successor admitted at epoch+1, with
// the validity gate still required to hold on every decision.
func TestLoadChurn(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-rate", "100", "-duration", "800ms", "-churn", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	var epoch, reconfigures int
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "epochs") {
			if _, err := fmt.Sscanf(line, "epochs at epoch %d, %d reconfigures", &epoch, &reconfigures); err != nil {
				t.Fatalf("bad epochs line %q: %v", line, err)
			}
		}
	}
	if epoch < 1 {
		t.Errorf("epoch = %d after one replacement, want ≥ 1\n%s", epoch, out.String())
	}
	if reconfigures < 4 {
		t.Errorf("reconfigures = %d, want ≥ 4 (every survivor adopts)\n%s", reconfigures, out.String())
	}
}

// TestLoadChurnScenario replays the committed membership-churn scenario
// (the CI chaos-smoke case) at a reduced rate: crash, replacement at
// epoch+1 under asymmetric faults, heal — zero violations required.
func TestLoadChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 2.6s fault timeline")
	}
	var out bytes.Buffer
	err := run([]string{"-chaos", "testdata/membership-churn.json", "-rate", "30", "-duration", "2600ms"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"errors     0 instance", "at epoch 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

// TestLoadDurationCoversScenario: -chaos runs at least the scenario's own
// horizon, so crash-restart's last restart (3.1 s) fires under load even
// at the 2 s -duration default.
func TestLoadDurationCoversScenario(t *testing.T) {
	scn, err := chaos.Load("testdata/crash-restart.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := loadDuration(2*time.Second, scn); got != 3200*time.Millisecond {
		t.Errorf("crash-restart at -duration 2s runs %v, want 3.2s", got)
	}
	if got := loadDuration(5*time.Second, scn); got != 5*time.Second {
		t.Errorf("crash-restart at -duration 5s runs %v, want 5s", got)
	}
	if got := loadDuration(2*time.Second, nil); got != 2*time.Second {
		t.Errorf("no scenario at -duration 2s runs %v, want 2s", got)
	}
}

// TestLoadBadFlags covers flag validation.
func TestLoadBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-policy", "bogus", "-instances", "1"}, &out); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := run([]string{"-n", "4", "-instances", "1"}, &out); err == nil {
		t.Error("n=4 < (d+2)f+1=5 accepted")
	}
}
