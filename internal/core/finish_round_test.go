package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/aad"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// haltAPI is the least sim.API finishRound needs: it records Halt and the
// number of messages sent.
type haltAPI struct {
	n      int
	halted bool
	sent   int
}

func (h *haltAPI) ID() sim.ProcID               { return 0 }
func (h *haltAPI) N() int                       { return h.n }
func (h *haltAPI) Send(sim.ProcID, sim.Message) { h.sent++ }
func (h *haltAPI) Broadcast(sim.Message)        { h.sent += h.n }
func (h *haltAPI) Halt()                        { h.halted = true }
func (h *haltAPI) Rand() *rand.Rand             { return nil }
func (h *haltAPI) Now() time.Duration           { return 0 }

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
			api := &haltAPI{n: n}
			nd.finishRound(api, &aad.Result{Round: 1, Tuples: tuples, WitnessPrefixes: [][]sim.ProcID{tc.prefix}})
			if tc.wantErr == "" {
				if nd.err != nil || api.halted || nd.round != 2 || api.sent == 0 {
					t.Fatalf("err=%v halted=%v round=%d sent=%d, want round 2 started", nd.err, api.halted, nd.round, api.sent)
				}
				return
			}
			if nd.err == nil || !strings.Contains(nd.err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", nd.err, tc.wantErr)
			}
			if !api.halted || nd.round != 1 {
				t.Fatalf("halted=%v round=%d, want a halted node still in round 1", api.halted, nd.round)
			}
			if _, err := nd.Decision(); err == nil {
				t.Fatal("Decision() succeeded on a failed node")
			}
		})
	}
}
