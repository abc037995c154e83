package verify

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestAdversaryRegression replays every committed schedule-search instance
// under testdata/adversary/ and asserts two things: the execution is still
// bit-stable (score and margins match what the searcher recorded — the
// schedule-sensitive code paths did not silently change), and the paper's
// guarantees still hold on the worst schedule the search ever found (no
// validity violation, no stall, unless the instance was committed as one —
// in which case it must still reproduce, because it documents a live bug).
func TestAdversaryRegression(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "adversary", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed adversary instances — regenerate with VERIFY_REGEN_ADVERSARY=1")
	}
	crashWindows := 0
	for _, fp := range files {
		t.Run(filepath.Base(fp), func(t *testing.T) {
			blob, err := os.ReadFile(fp)
			if err != nil {
				t.Fatal(err)
			}
			var inst Instance
			if err := json.Unmarshal(blob, &inst); err != nil {
				t.Fatal(err)
			}
			for i := 0; 2*i < len(inst.CrashRounds); i++ {
				if inst.CrashRounds[2*i] > 0 {
					crashWindows++
				}
			}
			res, err := ReplayInstance(inst)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != inst.Violation || res.Stalled != inst.Stalled {
				t.Fatalf("outcome diverged from recording: got violation=%v stalled=%v, recorded %v/%v",
					res.Violation, res.Stalled, inst.Violation, inst.Stalled)
			}
			const tol = 1e-6
			if math.Abs(res.Score-inst.Score) > tol ||
				math.Abs(res.MinMargin-inst.MinMargin) > tol ||
				math.Abs(res.Slack-inst.Slack) > tol {
				t.Fatalf("scores diverged from recording: got (%.9f, %.9f, %.9f), recorded (%.9f, %.9f, %.9f)",
					res.Score, res.MinMargin, res.Slack, inst.Score, inst.MinMargin, inst.Slack)
			}
			// The theorem at the resilience bound: the searcher's worst
			// schedule must not break validity or termination.
			if res.Violation || res.Stalled {
				t.Fatalf("committed instance violates the theorem: %+v", res)
			}
		})
	}
	// The corpus must keep at least one crash-timing schedule: a minimized
	// worst genome whose crash/restart window survived minimization, so
	// the crash-and-recover scheduling path stays pinned under replay.
	if crashWindows == 0 {
		t.Fatal("no committed instance carries a crash window — the crash-timing regression is missing")
	}
}

// TestRegenAdversaryCorpus reruns the schedule search at full strength and
// rewrites testdata/adversary/ when VERIFY_REGEN_ADVERSARY=1 is set. Each
// committed instance is the minimized worst schedule of one search
// configuration.
func TestRegenAdversaryCorpus(t *testing.T) {
	if os.Getenv("VERIFY_REGEN_ADVERSARY") == "" {
		t.Skip("set VERIFY_REGEN_ADVERSARY=1 to rerun the search and rewrite testdata/adversary")
	}
	configs := []struct {
		name string
		spec SearchSpec
	}{
		{"n7f1_seed11", SearchSpec{
			N: 7, F: 1, D: 2, Epsilon: 0.05, MaxRounds: 4, Seed: 11,
			Iterations: 250, Restarts: 2, BaseDelay: time.Millisecond, MaxExtra: 12,
		}},
		{"n8f1_seed29", SearchSpec{
			N: 8, F: 1, D: 2, Epsilon: 0.05, MaxRounds: 4, Seed: 29,
			Iterations: 250, Restarts: 2, BaseDelay: time.Millisecond, MaxExtra: 12,
		}},
		{"n9f1_d3_seed41", SearchSpec{
			N: 9, F: 1, D: 3, Epsilon: 0.05, MaxRounds: 3, Seed: 41,
			Iterations: 150, Restarts: 1, BaseDelay: time.Millisecond, MaxExtra: 12,
		}},
		{"n7f1_crash_seed53", SearchSpec{
			N: 7, F: 1, D: 2, Epsilon: 0.05, MaxRounds: 4, Seed: 53,
			Iterations: 300, Restarts: 3, BaseDelay: time.Millisecond, MaxExtra: 12,
		}},
	}
	dir := filepath.Join("testdata", "adversary")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range configs {
		found, err := Search(cfg.spec)
		if err != nil {
			t.Fatal(err)
		}
		minimized, err := Minimize(found, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		inst := minimized.Instance("annealed schedule search, minimized; worst contraction/margin schedule found")
		blob, err := json.MarshalIndent(inst, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, cfg.name+".json"), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: score %.4f margin %.4f slack %.4f violation=%v stalled=%v",
			cfg.name, minimized.Score, minimized.MinMargin, minimized.Slack, minimized.Violation, minimized.Stalled)
	}
}
