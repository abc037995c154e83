package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
)

// TestLoadSummary checks the human-readable mode.
func TestLoadSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rate", "250", "-instances", "12"}, &out); err != nil {
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
		t.Errorf("reconfigures = %d, want ≥ 4 (every survivor is reconfigured)\n%s", reconfigures, out.String())
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

// TestLoadRestartAfterReplace replays crash-restart with one churn
// replacement mid-run: a process crashed before the replace misses the
// epoch flip, so its restart must rejoin at the survivors' epoch — under
// the epoch it was born at, every survivor would refuse its handshakes.
func TestLoadRestartAfterReplace(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 3.2s fault timeline")
	}
	var out bytes.Buffer
	err := run([]string{"-chaos", "testdata/crash-restart.json", "-rate", "40", "-churn", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"errors     0 instance, 0 background, 0 validity violations", "at epoch 1"} {
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

// TestScenariosValidate loads every committed scenario and validates it
// against the default 5-process mesh, so a scenario that names a removed
// action or an out-of-range process fails here, not only in a chaos run.
func TestScenariosValidate(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("found %d scenarios in testdata, want the 4 committed ones: %v", len(paths), paths)
	}
	for _, path := range paths {
		scn, err := chaos.Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := scn.Validate(5); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestLoadBadFlags covers flag validation.
func TestLoadBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-policy", "block", "-instances", "1"}, &out); err == nil {
		t.Error("-policy accepted: a full outbox has one rule, there is no policy to pick")
	}
	if err := run([]string{"-n", "4", "-instances", "1"}, &out); err == nil {
		t.Error("n=4 < (d+2)f+1=5 accepted")
	}
}

// TestAgreementViolations: two decisions 2ε apart in one coordinate are one
// violating pair; decisions within ε of each other are none.
func TestAgreementViolations(t *testing.T) {
	const eps = 0.05
	if got := agreementViolations([][]float64{{0.5, 0.5}, {0.5, 0.5 + 2*eps}}, eps); got != 1 {
		t.Errorf("decisions 2ε apart: %d violations, want 1", got)
	}
	if got := agreementViolations([][]float64{{0.5, 0.5}, {0.5 + eps/2, 0.5}, {0.5, 0.5 - eps/2}}, eps); got != 0 {
		t.Errorf("decisions within ε: %d violations, want 0", got)
	}
}

// TestLoadEpsilonAgreement runs instances to the analytic horizon, where
// every pair of an instance's decisions must be within ε.
func TestLoadEpsilonAgreement(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rounds", "0", "-rate", "20", "-instances", "20"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if want := "0 validity violations, 0 ε-agreement violations"; !strings.Contains(out.String(), want) {
		t.Errorf("summary missing %q:\n%s", want, out.String())
	}
}

// TestGatePendingCounters: on a fault-free run every process proposes every
// id, so a parked frame dropped or left over fails the gate; under -chaos
// or -churn, where a crashed or replaced process leaves ids unproposed, it
// does not.
func TestGatePendingCounters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stats   bvc.ServiceStats
		chaos   bool
		wantErr bool
	}{
		{"clean", bvc.ServiceStats{}, false, false},
		{"dropped", bvc.ServiceStats{PendingDropped: 1}, false, true},
		{"left parked", bvc.ServiceStats{PendingFrames: 3}, false, true},
		{"read error", bvc.ServiceStats{ReadErrors: 1}, false, true},
		{"dropped under faults", bvc.ServiceStats{PendingDropped: 5, PendingFrames: 2}, true, false},
	} {
		r := &loadResult{chaosMode: tc.chaos, stats: []bvc.ServiceStats{{}, tc.stats}}
		if err := r.gate(loadConfig{}); (err != nil) != tc.wantErr {
			t.Errorf("%s: gate %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestPercentileNearestRank: the q-quantile of n sorted latencies is the
// ⌈q·n⌉-th, whether q·n has a fraction below one half or is an integer.
func TestPercentileNearestRank(t *testing.T) {
	sorted := func(n int) *loadResult {
		r := &loadResult{}
		for i := 1; i <= n; i++ {
			r.latencies = append(r.latencies, time.Duration(i))
		}
		return r
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want int // 1-based rank
	}{
		{10, 0.91, 10},
		{1960, 0.99, 1941},
		{10, 0.5, 5},
		{100, 0.99, 99},
		{100, 0.07, 7},
		{20, 0.95, 19},
		{10, 1.0, 10},
		{10, 0.01, 1},
		{1, 0.5, 1},
	} {
		if got := sorted(tc.n).percentile(tc.q); got != time.Duration(tc.want) {
			t.Errorf("n=%d q=%v: rank %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}
