package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKeyEqualVectorsSameKey(t *testing.T) {
	f := func(xs [3]float64) bool {
		v := Vector(xs[:])
		w := v.Clone()
		return string(AppendKey(nil, v)) == string(AppendKey(nil, w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyDistinguishes(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		same bool
	}{
		{name: "identical", a: Vector{1, 2}, b: Vector{1, 2}, same: true},
		{name: "different value", a: Vector{1, 2}, b: Vector{1, 2.0000001}, same: false},
		{name: "different dim", a: Vector{1}, b: Vector{1, 0}, same: false},
		{name: "negative zero", a: Vector{0.0}, b: Vector{math.Copysign(0, -1)}, same: true},
		{name: "empty", a: Vector{}, b: Vector{}, same: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := string(AppendKey(nil, tt.a)) == string(AppendKey(nil, tt.b)); got != tt.same {
				t.Errorf("Key equality = %v, want %v", got, tt.same)
			}
		})
	}
}

func TestKeyMatchesEqualProperty(t *testing.T) {
	// string(AppendKey(nil, a)) == string(AppendKey(nil, b)) ⇔ a.Equal(b) for finite same-length vectors.
	f := func(a, b [2]float64) bool {
		va, vb := Vector(a[:]), Vector(b[:])
		if !va.IsFinite() || !vb.IsFinite() {
			return true
		}
		return (string(AppendKey(nil, va)) == string(AppendKey(nil, vb))) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyNearMissValues(t *testing.T) {
	// Adjacent floats must produce distinct keys — the broadcast vote
	// counters depend on bit-exactness.
	x := 1.0
	y := math.Nextafter(x, 2)
	if string(AppendKey(nil, Vector{x})) == string(AppendKey(nil, Vector{y})) {
		t.Error("adjacent floats share a key")
	}
}
