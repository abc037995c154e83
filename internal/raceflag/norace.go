//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// The allocation-budget tests (docs/TESTING.md) count mallocs with
// testing.AllocsPerRun; the detector's instrumentation allocates on its
// own account, so those tests skip themselves under -race.
package raceflag

// Enabled reports that the build runs under the race detector.
const Enabled = false
