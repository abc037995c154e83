package main

import (
	"strings"
	"testing"
)

// TestAllocGate: an allocs/op blow-up beyond the threshold must fail even
// when ns/op is fine, and the calibration allocs ratio must normalize
// protocol-level shifts.
func TestAllocGate(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", `{"benchmark":"calibrate","ns_per_op":1000,"allocs_per_op":3,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":1000,"pass":true}
`)
	c := write(t, dir, "cand.json", `{"benchmark":"calibrate","ns_per_op":1000,"allocs_per_op":3,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":1500,"pass":true}
`)
	var sb strings.Builder
	err := run([]string{"-baseline", b, "-candidate", c}, &sb)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("expected allocs/op failure, got %v\n%s", err, sb.String())
	}

	// The same candidate passes when the calibration record carries the
	// same 1.5× allocs shift (a runtime/protocol change, not a code one) —
	// provided the calibration counts are large enough to normalize by.
	c2 := write(t, dir, "cand2.json", `{"benchmark":"calibrate","ns_per_op":1000,"allocs_per_op":1500,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":1500,"pass":true}
`)
	b2 := write(t, dir, "base2.json", `{"benchmark":"calibrate","ns_per_op":1000,"allocs_per_op":1000,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":1000,"pass":true}
`)
	sb.Reset()
	if err := run([]string{"-baseline", b2, "-candidate", c2}, &sb); err != nil {
		t.Fatalf("calibration-normalized allocs should pass: %v\n%s", err, sb.String())
	}

	// Tiny calibration counts must NOT normalize: a ±1 alloc wobble on a
	// 3-alloc kernel would swing the gate by 33%. Unchanged benchmark
	// allocs stay green even when the tiny calibrate count drifts 4 → 3.
	c3a := write(t, dir, "cand3a.json", `{"benchmark":"calibrate","ns_per_op":1000,"allocs_per_op":3,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":1000,"pass":true}
`)
	b3a := write(t, dir, "base3a.json", `{"benchmark":"calibrate","ns_per_op":1000,"allocs_per_op":4,"pass":true}
{"benchmark":"e1","ns_per_op":100000,"allocs_per_op":1000,"pass":true}
`)
	sb.Reset()
	if err := run([]string{"-baseline", b3a, "-candidate", c3a}, &sb); err != nil {
		t.Fatalf("tiny calibrate alloc jitter must not fail unchanged allocs: %v\n%s", err, sb.String())
	}

	// A baseline row without an allocation count has no ratio to gate.
	b3 := write(t, dir, "base3.json", `{"benchmark":"e1","ns_per_op":1000,"allocs_per_op":0,"pass":true}`)
	c3 := write(t, dir, "cand3.json", `{"benchmark":"e1","ns_per_op":1000,"allocs_per_op":999999,"pass":true}`)
	sb.Reset()
	if err := run([]string{"-baseline", b3, "-candidate", c3, "-calibration", ""}, &sb); err != nil {
		t.Fatalf("a baseline row without allocs/op must not gate allocs: %v\n%s", err, sb.String())
	}
}

const reuseTrajectory = `{"benchmark":"calibrate","ns_per_op":1000,"pass":true}
{"benchmark":"e10","ns_per_op":1,"pass":true,"gamma_solves":100,"gamma_cache_hits":50,"gamma_prefix_hits":10,"gamma_round_hits":5,"gamma_reuse_rate":0.375}
{"benchmark":"e10/rsync-n15","ns_per_op":1,"pass":true,"gamma_solves":60,"gamma_cache_hits":0,"gamma_prefix_hits":40,"gamma_round_hits":9,"gamma_reuse_rate":0.4}
{"benchmark":"e4","ns_per_op":1,"pass":true,"gamma_solves":7}
`

// TestReuseSummary: the reuse report lists Γ-active records and passes when
// every required prefix shows nonzero reuse.
func TestReuseSummary(t *testing.T) {
	dir := t.TempDir()
	p := write(t, dir, "traj.json", reuseTrajectory)
	var sb strings.Builder
	if err := runReuse([]string{"-require", "e10", p}, &sb); err != nil {
		t.Fatalf("reuse gate should pass: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"e10/rsync-n15", "37.5%", "e4"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "calibrate") {
		t.Errorf("Γ-free calibrate record should be omitted:\n%s", out)
	}
}

// TestReuseGateFailsOnZero: a required record with all-zero reuse counters
// (the incremental path silently regressed to from-scratch solves) fails.
func TestReuseGateFailsOnZero(t *testing.T) {
	dir := t.TempDir()
	p := write(t, dir, "traj.json", `{"benchmark":"e10","ns_per_op":1,"pass":true,"gamma_solves":100}
`)
	var sb strings.Builder
	err := runReuse([]string{"-require", "e10", p}, &sb)
	if err == nil || !strings.Contains(err.Error(), "zero reuse") {
		t.Fatalf("expected zero-reuse failure, got %v\n%s", err, sb.String())
	}

	// A prefix that matches nothing with Γ activity is also a failure (the
	// rows the gate guards must exist).
	err = runReuse([]string{"-require", "nope", p}, &sb)
	if err == nil || !strings.Contains(err.Error(), "matches no record") {
		t.Fatalf("expected unmatched-prefix failure, got %v", err)
	}
}
