package core

import (
	"math"
	"testing"

	"repro/internal/geometry"
)

func TestMinProcesses(t *testing.T) {
	tests := []struct {
		v    Variant
		d, f int
		want int
	}{
		// Exact sync: max(3f+1, (d+1)f+1).
		{VariantExactSync, 1, 1, 4}, // 3f+1 dominates
		{VariantExactSync, 2, 1, 4}, // tie: both give 4
		{VariantExactSync, 3, 1, 5}, // (d+1)f+1 dominates
		{VariantExactSync, 3, 2, 9}, // 4·2+1
		{VariantExactSync, 1, 0, 1}, // f = 0
		// Approx async: (d+2)f+1.
		{VariantApproxAsync, 1, 1, 4},
		{VariantApproxAsync, 2, 1, 5},
		{VariantApproxAsync, 2, 2, 9},
		// Restricted sync: (d+2)f+1.
		{VariantRestrictedSync, 2, 1, 5},
		// Restricted async: (d+4)f+1.
		{VariantRestrictedAsync, 1, 1, 6},
		{VariantRestrictedAsync, 2, 1, 7},
	}
	for _, tt := range tests {
		if got := MinProcesses(tt.v, tt.d, tt.f); got != tt.want {
			t.Errorf("MinProcesses(%v, d=%d, f=%d) = %d, want %d", tt.v, tt.d, tt.f, got, tt.want)
		}
	}
	if MinProcesses(Variant(99), 1, 1) != 0 {
		t.Error("unknown variant should yield 0")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{N: 5, F: 1, D: 2, Epsilon: 0.1, Bounds: geometry.UniformBox(2, 0, 1)}
	tests := []struct {
		name    string
		params  Params
		variant Variant
		wantErr bool
	}{
		{name: "exact ok", params: Params{N: 4, F: 1, D: 2}, variant: VariantExactSync, wantErr: false},
		{name: "exact too few", params: Params{N: 3, F: 1, D: 2}, variant: VariantExactSync, wantErr: true},
		{name: "exact d3 needs 5", params: Params{N: 4, F: 1, D: 3}, variant: VariantExactSync, wantErr: true},
		{name: "bad dim", params: Params{N: 4, F: 1, D: 0}, variant: VariantExactSync, wantErr: true},
		{name: "bad f", params: Params{N: 4, F: -1, D: 1}, variant: VariantExactSync, wantErr: true},
		{name: "async ok", params: good, variant: VariantApproxAsync, wantErr: false},
		{name: "async too few", params: Params{N: 4, F: 1, D: 2, Epsilon: 0.1, Bounds: geometry.UniformBox(2, 0, 1)}, variant: VariantApproxAsync, wantErr: true},
		{name: "async no eps", params: Params{N: 5, F: 1, D: 2, Bounds: geometry.UniformBox(2, 0, 1)}, variant: VariantApproxAsync, wantErr: true},
		{name: "async bad bounds dim", params: Params{N: 5, F: 1, D: 2, Epsilon: 0.1, Bounds: geometry.UniformBox(1, 0, 1)}, variant: VariantApproxAsync, wantErr: true},
		{name: "restricted async needs d+4", params: Params{N: 6, F: 1, D: 2, Epsilon: 0.1, Bounds: geometry.UniformBox(2, 0, 1)}, variant: VariantRestrictedAsync, wantErr: true},
		{name: "unknown variant", params: good, variant: Variant(42), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.params.WithDefaults().Validate(tt.variant)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate: err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestCheckInput(t *testing.T) {
	p := Params{N: 5, F: 1, D: 2, Epsilon: 0.1, Bounds: geometry.UniformBox(2, 0, 1)}
	if err := p.CheckInput(geometry.Vector{0.5, 0.5}, true); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
	if err := p.CheckInput(geometry.Vector{0.5}, false); err == nil {
		t.Error("wrong dim accepted")
	}
	if err := p.CheckInput(geometry.Vector{math.NaN(), 0}, false); err == nil {
		t.Error("NaN accepted")
	}
	if err := p.CheckInput(geometry.Vector{2, 0}, true); err == nil {
		t.Error("out-of-bounds accepted with needBounds")
	}
	if err := p.CheckInput(geometry.Vector{2, 0}, false); err != nil {
		t.Errorf("out-of-bounds rejected without needBounds: %v", err)
	}
}

func TestGamma(t *testing.T) {
	// n=5, f=1: full γ = 1/(5·C(5,4)) = 1/25; witness-opt γ = 1/25 too.
	if got := Gamma(VariantApproxAsync, 5, 1, false); math.Abs(got-1.0/25) > 1e-15 {
		t.Errorf("full γ = %g, want 1/25", got)
	}
	if got := Gamma(VariantApproxAsync, 5, 1, true); math.Abs(got-1.0/25) > 1e-15 {
		t.Errorf("witness γ = %g, want 1/25", got)
	}
	// n=9, f=2: full γ = 1/(9·C(9,7)) = 1/324; witness γ = 1/81.
	if got := Gamma(VariantApproxAsync, 9, 2, false); math.Abs(got-1.0/324) > 1e-15 {
		t.Errorf("full γ = %g, want 1/324", got)
	}
	if got := Gamma(VariantApproxAsync, 9, 2, true); math.Abs(got-1.0/81) > 1e-15 {
		t.Errorf("witness γ = %g, want 1/81", got)
	}
	// Restricted async n=6, f=1: γ = 1/(6·C(5,3)) = 1/60.
	if got := Gamma(VariantRestrictedAsync, 6, 1, false); math.Abs(got-1.0/60) > 1e-15 {
		t.Errorf("restricted async γ = %g, want 1/60", got)
	}
	if Gamma(Variant(99), 5, 1, false) != 0 {
		t.Error("unknown variant should yield 0")
	}
}

func TestRoundBound(t *testing.T) {
	// γ = 1/2, range 8, ε = 1: need (1/2)^t·8 < 1 → t > 3 → bound 1+3=4.
	if got := RoundBound(0.5, 8, 1); got != 4 {
		t.Errorf("RoundBound = %d, want 4", got)
	}
	// Already within ε.
	if got := RoundBound(0.5, 0.5, 1); got != 1 {
		t.Errorf("RoundBound = %d, want 1", got)
	}
	// Degenerate γ.
	if got := RoundBound(0, 10, 1); got != 1 {
		t.Errorf("RoundBound(γ=0) = %d, want 1", got)
	}
	// Monotonicity: smaller ε needs more rounds.
	if RoundBound(0.1, 1, 0.01) <= RoundBound(0.1, 1, 0.1) {
		t.Error("smaller ε should need more rounds")
	}
}

func TestVariantString(t *testing.T) {
	for _, v := range []Variant{VariantExactSync, VariantApproxAsync, VariantRestrictedSync, VariantRestrictedAsync, Variant(9)} {
		if v.String() == "" {
			t.Errorf("variant %d renders empty", v)
		}
	}
}

func TestGammaPointOfSetCanonicalizes(t *testing.T) {
	// The same set in different orders must give the identical point
	// (this is what makes zij common between two correct processes).
	set1 := []tuple{
		{origin: 2, value: geometry.Vector{0, 1}},
		{origin: 0, value: geometry.Vector{0, 0}},
		{origin: 3, value: geometry.Vector{1, 1}},
		{origin: 1, value: geometry.Vector{1, 0}},
	}
	set2 := []tuple{set1[3], set1[0], set1[1], set1[2]}
	p1, err := gammaPointOfSet(set1, 1, 0)
	if err == nil {
		t.Fatal("method 0 should be invalid")
	}
	p1, err = gammaPointOfSet(set1, 1, 1) // safearea.MethodAuto == 1
	if err != nil {
		t.Fatal(err)
	}
	p2, err := gammaPointOfSet(set2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Equal(p2) {
		t.Errorf("order-dependent safe point: %v vs %v", p1, p2)
	}
}

func TestAverageGammaSubsetErrors(t *testing.T) {
	tuples := []tuple{
		{origin: 0, value: geometry.Vector{0}},
		{origin: 1, value: geometry.Vector{1}},
		{origin: 2, value: geometry.Vector{2}},
	}
	eng := NewEngine(1)
	avg, size, err := eng.AverageGamma(tuples, 2, 0, 1) // f=0, MethodAuto
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 {
		t.Errorf("C(3,2) = %d sets, want 3", size)
	}
	if got, want := resultKey(avg, size, nil), resultKey(oracleAverageGamma(t, tuples, 2, 0, 1)); got != want {
		t.Errorf("average %s, oracle %s", got, want)
	}
	if _, _, err := eng.AverageGamma(tuples, 4, 0, 1); err == nil {
		t.Error("k > len: expected error")
	}
	if _, _, err := eng.AverageGamma(tuples, 0, 0, 1); err == nil {
		t.Error("k = 0: expected error")
	}
}

func TestAverageGammaPointsEmpty(t *testing.T) {
	if _, _, err := averageGammaPoints(nil, 1, 1); err == nil {
		t.Error("no sets: expected error")
	}
}
