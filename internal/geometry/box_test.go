package geometry

import (
	"math"
	"testing"
)

func TestUniformBox(t *testing.T) {
	b := UniformBox(3, -1, 2)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if b.Dim() != 3 {
		t.Errorf("Dim = %d", b.Dim())
	}
	if b.MaxRange() != 3 {
		t.Errorf("MaxRange = %g, want 3", b.MaxRange())
	}
}

func TestBoxValidate(t *testing.T) {
	tests := []struct {
		name    string
		box     Box
		wantErr bool
	}{
		{name: "ok", box: Box{Lo: Vector{0}, Hi: Vector{1}}, wantErr: false},
		{name: "degenerate ok", box: Box{Lo: Vector{1}, Hi: Vector{1}}, wantErr: false},
		{name: "dim mismatch", box: Box{Lo: Vector{0}, Hi: Vector{1, 2}}, wantErr: true},
		{name: "inverted", box: Box{Lo: Vector{2}, Hi: Vector{1}}, wantErr: true},
		{name: "nan", box: Box{Lo: Vector{math.NaN()}, Hi: Vector{1}}, wantErr: true},
		{name: "inf", box: Box{Lo: Vector{0}, Hi: Vector{math.Inf(1)}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.box.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBoxContains(t *testing.T) {
	b := UniformBox(2, 0, 1)
	tests := []struct {
		name string
		p    Vector
		want bool
	}{
		{name: "inside", p: Vector{0.5, 0.5}, want: true},
		{name: "corner", p: Vector{0, 1}, want: true},
		{name: "outside", p: Vector{1.1, 0}, want: false},
		{name: "below", p: Vector{-0.1, 0}, want: false},
		{name: "wrong dim", p: Vector{0.5}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := b.Contains(tt.p, 1e-9); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestBoxContainsTolerance(t *testing.T) {
	b := UniformBox(1, 0, 1)
	if !b.Contains(Vector{1.0000001}, 1e-6) {
		t.Error("point within tolerance should be contained")
	}
	if b.Contains(Vector{1.1}, 1e-6) {
		t.Error("point outside tolerance should not be contained")
	}
}
