//go:build race

package raceflag

// Enabled reports that the build runs under the race detector.
const Enabled = true
