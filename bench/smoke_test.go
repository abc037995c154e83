package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles the benchmark the way run.sh does.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bvcperf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// start runs the binary in its own process group, so that anything it
// might leave behind can be found by the group id after it exits.
func start(t *testing.T, bin string, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &stdout, &stderr
}

// waitWithin waits for the process and fails the test, killing the whole
// group, if it outlives the limit.
func waitWithin(t *testing.T, cmd *exec.Cmd, limit time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // test cleanup; the failure below is the report
		<-done
		t.Fatalf("still running after %v", limit)
		return nil
	}
}

// groupEmpty reports whether no process of the exited command's process
// group is left: the benchmark started nothing that outlived it.
func groupEmpty(pgid int) bool {
	return errors.Is(syscall.Kill(-pgid, 0), syscall.ESRCH)
}

// The whole suite at toy size: every workload, untraced and traced, exits
// 0 with a well-formed result line and leaves no process behind.
func TestSuiteRunsAndExitsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a fraction of a second each; about half a minute")
	}
	bin := buildBinary(t)
	cmd, stdout, stderr := start(t, bin, "-seconds", "0.2", "-seed", "11")
	if err := waitWithin(t, cmd, 3*time.Minute); err != nil {
		t.Fatalf("suite: %v\nstderr:\n%s\nstdout:\n%s", err, stderr, stdout)
	}
	if !groupEmpty(cmd.Process.Pid) {
		t.Error("a process of the benchmark's group is still alive after it exited")
	}
	results := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("result %q: not a clean run", line)
		}
		if n := len(r.Metrics); n != len(endToEnd) && n != len(perLayer) {
			t.Errorf("result carries %d metrics, want %d or %d", n, len(endToEnd), len(perLayer))
		}
		results++
	}
	if results != 2*len(workloads) {
		t.Errorf("%d result lines, want %d", results, 2*len(workloads))
	}
}

// SIGTERM in the middle of a live run: the benchmark closes its mesh and
// exits non-zero promptly, with nothing left in its process group.
func TestSigtermLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a live mesh")
	}
	bin := buildBinary(t)
	cmd, _, stderr := start(t, bin, "-workload", "live-closed-n5", "-seconds", "60")
	time.Sleep(2 * time.Second) // mesh built, load flowing
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := waitWithin(t, cmd, 10*time.Second)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != exitSignal {
		t.Errorf("exit after SIGTERM: %v, want status %d\nstderr:\n%s", err, exitSignal, stderr)
	}
	if !groupEmpty(cmd.Process.Pid) {
		t.Error("a process of the benchmark's group is still alive after SIGTERM")
	}
}
