package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"pass":true}
{"benchmark":"e2","ns_per_op":200000,"pass":true}
`

func TestNoRegression(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":110000,"pass":true}
{"benchmark":"e2","ns_per_op":150000,"pass":true}
`)
	var sb strings.Builder
	if err := run([]string{"-baseline", b, "-candidate", c}, &sb); err != nil {
		t.Fatalf("unexpected failure: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "no regressions") {
		t.Errorf("missing success line:\n%s", sb.String())
	}
}

func TestRegressionFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":140000,"pass":true}
{"benchmark":"e2","ns_per_op":200000,"pass":true}
`)
	var sb strings.Builder
	err := run([]string{"-baseline", b, "-candidate", c}, &sb)
	if err == nil || !strings.Contains(err.Error(), "e1") {
		t.Fatalf("expected e1 regression failure, got %v\n%s", err, sb.String())
	}
}

// TestCalibrationNormalizes: a uniformly slower machine (every record 2×,
// including the calibration workload) must NOT count as a regression, and a
// genuinely slower benchmark must still fail after normalization.
func TestCalibrationNormalizes(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	slow := write(t, dir, "slow.json", `{"benchmark":"calibrate","ns_per_op":2000,"pass":true}
{"benchmark":"e1","ns_per_op":200000,"pass":true}
{"benchmark":"e2","ns_per_op":400000,"pass":true}
`)
	var sb strings.Builder
	if err := run([]string{"-baseline", b, "-candidate", slow}, &sb); err != nil {
		t.Fatalf("uniform slowdown flagged as regression: %v\n%s", err, sb.String())
	}
	bad := write(t, dir, "bad.json", `{"benchmark":"calibrate","ns_per_op":2000,"pass":true}
{"benchmark":"e1","ns_per_op":600000,"pass":true}
{"benchmark":"e2","ns_per_op":400000,"pass":true}
`)
	sb.Reset()
	err := run([]string{"-baseline", b, "-candidate", bad}, &sb)
	if err == nil || !strings.Contains(err.Error(), "e1") {
		t.Fatalf("expected normalized e1 regression, got %v\n%s", err, sb.String())
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"pass":true}
`)
	var sb strings.Builder
	err := run([]string{"-baseline", b, "-candidate", c}, &sb)
	if err == nil || !strings.Contains(err.Error(), "e2") {
		t.Fatalf("expected missing-e2 failure, got %v", err)
	}
}

func TestFailedRecordFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"pass":false}
{"benchmark":"e2","ns_per_op":200000,"pass":true}
`)
	var sb strings.Builder
	err := run([]string{"-baseline", b, "-candidate", c}, &sb)
	if err == nil || !strings.Contains(err.Error(), "pass=false") {
		t.Fatalf("expected pass=false failure, got %v", err)
	}
}

// TestNewFailedRecordFails: pass=false fails the gate on every candidate
// record, including one the baseline has never seen.
func TestNewFailedRecordFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"pass":true}
{"benchmark":"e2","ns_per_op":200000,"pass":true}
{"benchmark":"e11","ns_per_op":900000,"pass":false}
`)
	var sb strings.Builder
	err := run([]string{"-baseline", b, "-candidate", c}, &sb)
	if err == nil || !strings.Contains(err.Error(), "e11: candidate record reports pass=false") {
		t.Fatalf("expected e11 pass=false failure, got %v\n%s", err, sb.String())
	}
}

// TestMissingAllocCountFails: a baseline row with an allocation count
// fails when the candidate reports none, instead of skipping the gate.
func TestMissingAllocCountFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", `{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":1000,"pass":true}`)
	c := write(t, dir, "cand.json", `{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":0,"pass":true}`)
	var sb strings.Builder
	err := run([]string{"-baseline", b, "-candidate", c, "-calibration", ""}, &sb)
	if err == nil || !strings.Contains(err.Error(), "e1: candidate reports no allocs/op") {
		t.Fatalf("expected missing allocs/op failure, got %v\n%s", err, sb.String())
	}
}

// TestUnknownSubcommandRejected: compare mode takes no positional
// arguments, so a mistyped or removed subcommand is an error rather than
// a compare against the default file names.
func TestUnknownSubcommandRejected(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"merge", "-out", "x.json"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `"merge"`) {
		t.Fatalf("expected unknown-subcommand error, got %v", err)
	}
}

func TestNewBenchmarkInformational(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"pass":true}
{"benchmark":"e2","ns_per_op":200000,"pass":true}
{"benchmark":"e11","ns_per_op":900000,"pass":true}
`)
	var sb strings.Builder
	if err := run([]string{"-baseline", b, "-candidate", c}, &sb); err != nil {
		t.Fatalf("new benchmark must not fail the gate: %v", err)
	}
	if !strings.Contains(sb.String(), "NEW") {
		t.Errorf("new benchmark not reported:\n%s", sb.String())
	}
}

func TestMalformedInput(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", "not json\n")
	c := write(t, dir, "cand.json", baseline)
	var sb strings.Builder
	if err := run([]string{"-baseline", b, "-candidate", c}, &sb); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	if err := run([]string{"-baseline", filepath.Join(dir, "missing.json"), "-candidate", c}, &sb); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestCoreCountMismatchWarns(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true,"gomaxprocs":1}
{"benchmark":"e1","ns_per_op":100000,"pass":true,"gomaxprocs":1}
`)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"pass":true,"gomaxprocs":4}
{"benchmark":"e1","ns_per_op":100000,"pass":true,"gomaxprocs":4}
`)
	var sb strings.Builder
	if err := run([]string{"-baseline", b, "-candidate", c}, &sb); err != nil {
		t.Fatalf("core-count mismatch must warn, not fail: %v", err)
	}
	if !strings.Contains(sb.String(), "GOMAXPROCS 1 (baseline) vs 4") {
		t.Errorf("missing core-count warning:\n%s", sb.String())
	}
}
