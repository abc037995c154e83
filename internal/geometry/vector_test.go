package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewVector(t *testing.T) {
	tests := []struct {
		give int
		want int
	}{
		{give: 0, want: 0},
		{give: 1, want: 1},
		{give: 5, want: 5},
	}
	for _, tt := range tests {
		v := NewVector(tt.give)
		if v.Dim() != tt.want {
			t.Errorf("NewVector(%d).Dim() = %d, want %d", tt.give, v.Dim(), tt.want)
		}
		for i, x := range v {
			if x != 0 {
				t.Errorf("NewVector(%d)[%d] = %g, want 0", tt.give, i, x)
			}
		}
	}
}

func TestNewVectorNegative(t *testing.T) {
	if v := NewVector(-1); v != nil {
		t.Errorf("NewVector(-1) = %v, want nil", v)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("mutating clone changed original: v = %v", v)
	}
	if !v.Equal(Vector{1, 2, 3}) {
		t.Errorf("original corrupted: %v", v)
	}
}

func TestVectorCloneNil(t *testing.T) {
	var v Vector
	if got := v.Clone(); got != nil {
		t.Errorf("nil.Clone() = %v, want nil", got)
	}
}

func TestVectorScale(t *testing.T) {
	v := Vector{1, -2, 0}
	if got := v.Scale(-2); !got.Equal(Vector{-2, 4, 0}) {
		t.Errorf("Scale(-2) = %v", got)
	}
	if got := v.Scale(0); !got.Equal(Vector{0, 0, 0}) {
		t.Errorf("Scale(0) = %v", got)
	}
}

func TestVectorDistInf(t *testing.T) {
	v := Vector{0, 0, 0}
	w := Vector{1, -3, 2}
	if got := v.DistInf(w); got != 3 {
		t.Errorf("DistInf = %g, want 3", got)
	}
	if got := v.DistInf(v); got != 0 {
		t.Errorf("DistInf(self) = %g, want 0", got)
	}
}

func TestVectorDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	_ = Vector{1}.DistInf(Vector{1, 2})
}

func TestVectorEqual(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want bool
	}{
		{name: "equal", v: Vector{1, 2}, w: Vector{1, 2}, want: true},
		{name: "different value", v: Vector{1, 2}, w: Vector{1, 3}, want: false},
		{name: "different dim", v: Vector{1}, w: Vector{1, 0}, want: false},
		{name: "both empty", v: Vector{}, w: Vector{}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Equal(tt.w); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVectorIsFinite(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want bool
	}{
		{name: "finite", v: Vector{1, -2, 0}, want: true},
		{name: "nan", v: Vector{1, math.NaN()}, want: false},
		{name: "posinf", v: Vector{math.Inf(1)}, want: false},
		{name: "neginf", v: Vector{math.Inf(-1)}, want: false},
		{name: "empty", v: Vector{}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.IsFinite(); got != tt.want {
				t.Errorf("IsFinite = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVectorCompare(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want int
	}{
		{name: "less first coord", v: Vector{1, 9}, w: Vector{2, 0}, want: -1},
		{name: "greater second", v: Vector{1, 2}, w: Vector{1, 1}, want: 1},
		{name: "equal", v: Vector{1, 1}, w: Vector{1, 1}, want: 0},
		{name: "prefix shorter", v: Vector{1}, w: Vector{1, 0}, want: -1},
		{name: "prefix longer", v: Vector{1, 0}, w: Vector{1}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Compare(tt.w); got != tt.want {
				t.Errorf("Compare = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestVectorCompareTotalOrder(t *testing.T) {
	// Compare must be antisymmetric and transitive on random data.
	rng := rand.New(rand.NewSource(7))
	vecs := make([]Vector, 30)
	for i := range vecs {
		v := NewVector(3)
		for j := range v {
			v[j] = float64(rng.Intn(4)) // collisions likely
		}
		vecs[i] = v
	}
	for _, a := range vecs {
		for _, b := range vecs {
			if a.Compare(b) != -b.Compare(a) {
				t.Fatalf("antisymmetry broken: %v vs %v", a, b)
			}
			for _, c := range vecs {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Fatalf("transitivity broken: %v %v %v", a, b, c)
				}
			}
		}
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]Vector{{0, 0}, {2, 4}})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if !got.ApproxEqual(Vector{1, 2}, 1e-12) {
		t.Errorf("Mean = %v, want (1,2)", got)
	}
}

func TestMeanErrors(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil): expected error")
	}
	if _, err := Mean([]Vector{{1}, {1, 2}}); err == nil {
		t.Error("Mean(mixed dims): expected error")
	}
}

// Property: DistInf satisfies the triangle inequality. Magnitudes near
// ±1e308 are excluded: there subtraction loses more than any additive
// tolerance, and consensus inputs live in known boxes anyway.
func TestDistInfTriangleProperty(t *testing.T) {
	const lim = 1e100
	f := func(a, b, c [3]float64) bool {
		u, v, w := Vector(a[:]), Vector(b[:]), Vector(c[:])
		for _, vec := range []Vector{u, v, w} {
			if !vec.IsFinite() {
				return true
			}
			for _, x := range vec {
				if x > lim || x < -lim {
					return true
				}
			}
		}
		direct := u.DistInf(w)
		viaV := u.DistInf(v) + v.DistInf(w)
		return direct <= viaV+1e-9*(1+direct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{1, 2.5}
	if got := v.String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
	if got := (Vector{}).String(); got != "()" {
		t.Errorf("empty String = %q", got)
	}
}
