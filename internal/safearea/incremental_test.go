package safearea

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

func randVector(rng *rand.Rand, d int) geometry.Vector {
	v := geometry.NewVector(d)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func randMultiset(rng *rand.Rand, n, d int) *geometry.Multiset {
	ms := geometry.NewMultiset(d)
	for i := 0; i < n; i++ {
		if err := ms.Add(randVector(rng, d)); err != nil {
			panic(err)
		}
	}
	return ms
}

// TestResolveMatchesLadder pins Resolve to PointWith's MethodAuto ladder.
func TestResolveMatchesLadder(t *testing.T) {
	cases := []struct {
		n, d, f int
		want    Method
	}{
		{5, 1, 1, MethodAuto},         // d = 1 closed form
		{5, 2, 0, MethodAuto},         // f = 0 lex-min member
		{5, 2, 1, MethodRadon},        // f = 1, n ≥ d+2
		{3, 2, 1, MethodLexMinLP},     // f = 1, below d+2
		{7, 2, 2, MethodTverbergLift}, // n ≥ (d+1)f+1
		{6, 2, 2, MethodLexMinLP},     // below the Lemma-1 threshold
		{9, 3, 2, MethodTverbergLift}, // n ≥ 9
	}
	for _, c := range cases {
		if got := Resolve(c.n, c.d, c.f, MethodAuto); got != c.want {
			t.Errorf("Resolve(%d,%d,%d, auto) = %v, want %v", c.n, c.d, c.f, got, c.want)
		}
	}
	if got := Resolve(9, 3, 2, MethodLexMinLP); got != MethodLexMinLP {
		t.Errorf("explicit method must resolve to itself, got %v", got)
	}
}

// TestAutoMatchesResolvedMethod: PointWith resolves MethodAuto through
// Resolve, so naming the resolved method explicitly must give the same
// point, bit for bit, or the same error — in every regime of the ladder.
func TestAutoMatchesResolvedMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	sliver := func(n, d int) *geometry.Multiset {
		ms := geometry.NewMultiset(d)
		for i := 0; i < n; i++ {
			v := randVector(rng, d)
			for l := range v {
				v[l] = 0.3 + v[l]*1e-12
			}
			if err := ms.Add(v); err != nil {
				panic(err)
			}
		}
		return ms
	}
	cases := []struct {
		name string
		f    int
		y    func() *geometry.Multiset
	}{
		{"d=1", 2, func() *geometry.Multiset { return randMultiset(rng, 7, 1) }},
		{"f=0", 0, func() *geometry.Multiset { return randMultiset(rng, 4, 3) }},
		{"radon", 1, func() *geometry.Multiset { return randMultiset(rng, 6, 2) }},
		{"lift", 2, func() *geometry.Multiset { return randMultiset(rng, 9, 2) }},
		{"lift-rescaled", 2, func() *geometry.Multiset {
			ms := randMultiset(rng, 7, 2)
			for i := 0; i < ms.Len(); i++ {
				for l := range ms.At(i) {
					ms.At(i)[l] *= 1e-3
				}
			}
			return ms
		}},
		{"below-threshold", 2, func() *geometry.Multiset { return randMultiset(rng, 6, 2) }},
		{"degenerate-spread", 2, func() *geometry.Multiset { return sliver(7, 2) }},
	}
	for _, c := range cases {
		for trial := 0; trial < 8; trial++ {
			y := c.y()
			resolved := Resolve(y.Len(), y.Dim(), c.f, MethodAuto)
			auto, autoErr := PointWith(y, c.f, MethodAuto)
			want, wantErr := PointWith(y, c.f, resolved)
			if (autoErr == nil) != (wantErr == nil) || autoErr != nil && autoErr.Error() != wantErr.Error() {
				t.Fatalf("%s trial %d: auto error %v, %v error %v", c.name, trial, autoErr, resolved, wantErr)
			}
			if len(auto) != len(want) {
				t.Fatalf("%s trial %d: auto %v, %v %v", c.name, trial, auto, resolved, want)
			}
			for l := range auto {
				if math.Float64bits(auto[l]) != math.Float64bits(want[l]) {
					t.Fatalf("%s trial %d: auto %v, %v %v", c.name, trial, auto, resolved, want)
				}
			}
		}
	}
}

// TestPrefixLen pins the dependence lengths of the ladder's methods.
func TestPrefixLen(t *testing.T) {
	cases := []struct {
		n, d, f int
		method  Method
		want    int
	}{
		{13, 3, 2, MethodAuto, 9},      // lift: (d+1)f+1
		{13, 4, 1, MethodAuto, 6},      // radon: d+2
		{9, 4, 1, MethodAuto, 6},       // radon below full
		{9, 1, 2, MethodAuto, 9},       // d = 1: full
		{9, 3, 0, MethodAuto, 9},       // f = 0: full
		{13, 3, 2, MethodLexMinLP, 13}, // joint LP: full
		{9, 3, 2, MethodAuto, 9},       // lift at exactly (d+1)f+1: full
	}
	for _, c := range cases {
		if got := PrefixLen(c.n, c.d, c.f, c.method); got != c.want {
			t.Errorf("PrefixLen(%d,%d,%d,%v) = %d, want %d", c.n, c.d, c.f, c.method, got, c.want)
		}
	}
}

// TestPointOnPrefixMatchesFull: whenever PointOnPrefix certifies a point
// from the prefix, PointWith on ANY superset sharing that prefix must return
// the identical point, bit for bit.
func TestPointOnPrefixMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ n, d, f int }{
		{13, 3, 2}, {11, 4, 2}, {9, 2, 2}, {9, 4, 1}, {7, 2, 1}, {13, 3, 3},
	}
	for _, c := range cases {
		for trial := 0; trial < 10; trial++ {
			full := randMultiset(rng, c.n, c.d)
			m := PrefixLen(c.n, c.d, c.f, MethodAuto)
			if m == c.n {
				continue
			}
			prefixIdx := make([]int, m)
			for i := range prefixIdx {
				prefixIdx[i] = i
			}
			prefix, err := full.Subset(prefixIdx)
			if err != nil {
				t.Fatal(err)
			}
			pt, ok, err := PointOnPrefix(prefix, c.f, MethodAuto)
			if err != nil {
				t.Fatalf("n=%d d=%d f=%d: %v", c.n, c.d, c.f, err)
			}
			if !ok {
				continue // not certified: caller falls back, nothing to check
			}
			want, err := PointWith(full, c.f, MethodAuto)
			if err != nil {
				t.Fatalf("full PointWith: %v", err)
			}
			if !pt.Equal(want) {
				t.Fatalf("n=%d d=%d f=%d trial %d: prefix point %v, full point %v",
					c.n, c.d, c.f, trial, pt, want)
			}
			// And the certified point is a genuine Γ(full) member.
			in, err := Contains(full, c.f, pt, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			if !in {
				t.Fatalf("certified prefix point outside Γ of the superset")
			}
		}
	}
}

// TestIncrementalMatchesFromScratch drives an Incremental through random
// Swaps and checks Point, bit for bit, against PointWith on a from-scratch
// copy of the same multiset after every swap.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ n, d, f int }{{6, 2, 1}, {7, 2, 2}, {11, 2, 2}} {
		cur := randMultiset(rng, c.n, c.d)
		inc, err := NewIncremental(cur, c.f)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			i, v := rng.Intn(inc.Len()), randVector(rng, c.d)
			if err := inc.Swap(i, v); err != nil {
				t.Fatalf("step %d swap: %v", step, err)
			}
			copy(cur.At(i), v)

			wantPt, wantErr := PointWith(cur.Clone(), c.f, MethodAuto)
			gotPt, gotErr := inc.Point(MethodAuto)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("n=%d f=%d step %d: point errors diverge: %v vs %v", c.n, c.f, step, gotErr, wantErr)
			}
			if wantErr == nil && !gotPt.Equal(wantPt) {
				t.Fatalf("n=%d f=%d step %d: incremental point %v, from-scratch %v", c.n, c.f, step, gotPt, wantPt)
			}
		}
	}
	inc, err := NewIncremental(randMultiset(rng, 6, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Swap(6, randVector(rng, 2)) == nil || inc.Swap(0, randVector(rng, 3)) == nil {
		t.Error("Swap accepted an out-of-range index or a wrong dimension")
	}
}
