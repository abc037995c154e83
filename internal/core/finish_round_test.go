package core

import (
	"strings"
	"testing"

	"repro/internal/aad"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// TestFinishRoundWitnessPrefixMissingOrigin: a witness prefix naming an
// origin whose tuple is not in B must fail the node (the origin-indexed
// lookup has no "absent key" of its own — the nil value is the signal),
// while a prefix wholly inside B advances the round.
func TestFinishRoundWitnessPrefixMissingOrigin(t *testing.T) {
	const n, f, d = 4, 1, 1
	cfg := AsyncConfig{
		Params:     Params{N: n, F: f, D: d, Epsilon: 0.1, Bounds: geometry.UniformBox(d, 0, 1)},
		WitnessOpt: true,
		MaxRounds:  2,
	}
	tuples := []aad.Tuple{
		{Origin: 0, Value: geometry.Vector{0.1}},
		{Origin: 2, Value: geometry.Vector{0.5}},
		{Origin: 3, Value: geometry.Vector{0.9}},
	}
	for _, tc := range []struct {
		name    string
		prefix  []sim.ProcID
		wantErr string
	}{
		{"inside B", []sim.ProcID{3, 0, 2}, ""},
		{"origin 1 absent", []sim.ProcID{0, 1, 2}, "origin 1 missing from B"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd, err := NewAsyncNode(cfg, 0, geometry.Vector{0.1})
			if err != nil {
				t.Fatal(err)
			}
			nd.round = 1
			advanced := nd.finishRound(&aad.Result{Round: 1, Tuples: tuples, WitnessPrefixes: [][]sim.ProcID{tc.prefix}})
			if tc.wantErr == "" {
				if st := nd.status(); st != StepContinue || nd.round != 2 || !advanced {
					t.Fatalf("status=%d err=%v round=%d advanced=%v, want round 2 next", st, nd.err, nd.round, advanced)
				}
				return
			}
			if nd.err == nil || !strings.Contains(nd.err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", nd.err, tc.wantErr)
			}
			if st := nd.status(); st != StepFailed || nd.round != 1 || advanced {
				t.Fatalf("status=%d round=%d, want a failed node still in round 1", st, nd.round)
			}
			if _, err := nd.Decision(); err == nil {
				t.Fatal("Decision() succeeded on a failed node")
			}
		})
	}
}
