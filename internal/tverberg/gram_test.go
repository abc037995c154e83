package tverberg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// randomMultiset draws n points uniform in [lo, lo+span)^d.
func randomMultiset(rng *rand.Rand, n, d int, lo, span float64) *geometry.Multiset {
	ms := geometry.NewMultiset(d)
	for i := 0; i < n; i++ {
		v := geometry.NewVector(d)
		for j := range v {
			v[j] = lo + span*rng.Float64()
		}
		if err := ms.Add(v); err != nil {
			panic(err)
		}
	}
	return ms
}

// TestGramEntriesMatchLiftedDots: the structured entries
// memberDot(j, j')·⟨x̄_i, x̄_i'⟩ the search reads must equal the inner
// products of the materialized lifted vectors v_j ⊗ x̄_i the oracle builds,
// to rounding — for every pair of members of every pair of classes.
func TestGramEntriesMatchLiftedDots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ d, r int }{{1, 2}, {2, 3}, {3, 3}, {2, 4}, {4, 3}} {
		dim := (c.d + 1) * (c.r - 1)
		k := dim + 1
		ms := randomMultiset(rng, k, c.d, -2, 4)
		var ls liftScratch
		if err := ls.read(ms, k, c.d, geometry.NewVector(c.d), 1); err != nil {
			t.Fatal(err)
		}

		var os oracleLiftScratch
		lifted := os.classes(k, c.r, dim)
		for i := 0; i < k; i++ {
			for j := 0; j < c.r; j++ {
				copy(lifted[i][j], oracleLiftedMember(ms.At(i), j, c.r))
			}
		}
		for i := 0; i < k; i++ {
			for i2 := 0; i2 < k; i2++ {
				for j := 0; j < c.r; j++ {
					for j2 := 0; j2 < c.r; j2++ {
						got := memberDot(j, j2, c.r) * ls.g[i*k+i2]
						want := dot(lifted[i][j], lifted[i2][j2])
						if math.Abs(got-want) > 1e-13*(1+math.Abs(want)) {
							t.Fatalf("d=%d r=%d: ⟨w[%d][%d], w[%d][%d]⟩ = %g structured, %g lifted", c.d, c.r, i, j, i2, j2, got, want)
						}
					}
				}
			}
		}
	}
}

// oracleLiftedMember builds v_j ⊗ x̄ for one point the way oracleLift does.
func oracleLiftedMember(x geometry.Vector, j, r int) []float64 {
	d := len(x)
	w := make([]float64, (d+1)*(r-1))
	bar := append(append([]float64(nil), x...), 1)
	for a := 0; a < r-1; a++ {
		for b := 0; b <= d; b++ {
			switch {
			case j == r-1:
				w[a*(d+1)+b] = -bar[b]
			case j == a:
				w[a*(d+1)+b] = bar[b]
			}
		}
	}
	return w
}

// TestWolfeMatchesOracle: from a cold start the Gram-space solver and the
// vector-space oracle find the same minimum-norm point — same squared norm,
// same convex weights — on random point sets in general position.
func TestWolfeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		dim := 1 + rng.Intn(8)
		k := 2 + rng.Intn(dim+3)
		rows := make([][]float64, k)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = rng.Float64()*2 - 0.7
			}
		}
		want, err := oracleMinNorm(rows)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		gram := gramOf(rows)
		var w wolfe
		w.start(gram, k)
		if err := w.solve(gram, k); err != nil {
			t.Fatalf("trial %d: gram solve: %v", trial, err)
		}
		if msg := againstOracle(&w, gram, want, 1); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
}

// TestLiftMatchesOracle: on random, duplicated and clustered inputs across
// the (d, r) grid the Gram-space search and the vector-space oracle both
// return partitions that verify. The partitions themselves may differ — a
// point set has many Tverberg partitions, and where a min-norm point has
// more than one corral the warm and cold starts pivot on different classes.
func TestLiftMatchesOracle(t *testing.T) {
	cases := []struct{ d, r, extra int }{
		{1, 3, 0}, {2, 3, 0}, {2, 3, 2}, {3, 3, 0}, {2, 4, 0}, {3, 4, 1}, {4, 3, 0},
	}
	rng := rand.New(rand.NewSource(9))
	for _, c := range cases {
		size := (c.d+1)*(c.r-1) + 1 + c.extra
		for trial := 0; trial < 60; trial++ {
			ms := randomMultiset(rng, size, c.d, 0, 1)
			switch trial % 3 {
			case 1: // the last member duplicates the first
				dup := geometry.NewMultiset(c.d)
				for i := 0; i < size; i++ {
					if err := dup.Add(ms.At(i % (size - 1))); err != nil {
						t.Fatal(err)
					}
				}
				ms = dup
			case 2: // a tight cluster and one outlier
				cl := geometry.NewMultiset(c.d)
				for i := 0; i < size; i++ {
					v := ms.At(i).Clone()
					if i > 0 {
						for j := range v {
							v[j] = 0.5 + 1e-3*v[j]
						}
					}
					if err := cl.Add(v); err != nil {
						t.Fatal(err)
					}
				}
				ms = cl
			}
			got, err := Lift(ms, c.r)
			if err != nil {
				t.Fatalf("d=%d r=%d trial %d: Lift: %v", c.d, c.r, trial, err)
			}
			want, err := oracleLift(ms, c.r)
			if err != nil {
				t.Fatalf("d=%d r=%d trial %d: oracle: %v", c.d, c.r, trial, err)
			}
			for name, part := range map[string]*Partition{"Lift": got, "oracle": want} {
				if err := Verify(ms, part, 1e-6); err != nil {
					t.Fatalf("d=%d r=%d trial %d: %s: %v", c.d, c.r, trial, name, err)
				}
			}
		}
	}
}

// TestLiftScratchHistoryIndependence: a scratch that has just solved 1000
// unrelated inputs of other shapes — and so holds their corral, weights,
// Gram matrices and points in every buffer — must return a Partition
// bit-identical to a fresh scratch's. The carried corral is a warm start
// within one search, never across calls.
func TestLiftScratchHistoryIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := []struct{ d, r int }{{2, 3}, {3, 3}, {2, 4}, {4, 3}, {1, 2}}
	lift := func(ls *liftScratch, ms *geometry.Multiset, r int) *Partition {
		t.Helper()
		k, err := liftSize(ms, r)
		if err != nil {
			t.Fatal(err)
		}
		part, err := ls.lift(ms, r, k, geometry.NewVector(ms.Dim()), 1)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	used := new(liftScratch)
	for _, target := range shapes {
		ms := randomMultiset(rng, (target.d+1)*(target.r-1)+2, target.d, 0, 1)
		want := lift(new(liftScratch), ms, target.r)
		for i := 0; i < 1000; i++ {
			s := shapes[rng.Intn(len(shapes))]
			lift(used, randomMultiset(rng, (s.d+1)*(s.r-1)+1, s.d, 0, 1), s.r)
		}
		got := lift(used, ms, target.r)
		if !samePartitionBits(got, want) {
			t.Fatalf("d=%d r=%d: used scratch gave %+v, fresh scratch %+v", target.d, target.r, got, want)
		}
	}
}

// samePartitionBits compares two partitions field by field, floats by bit
// pattern.
func samePartitionBits(a, b *Partition) bool {
	if len(a.Blocks) != len(b.Blocks) || len(a.Point) != len(b.Point) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Blocks {
		if len(a.Blocks[i]) != len(b.Blocks[i]) {
			return false
		}
		for j := range a.Blocks[i] {
			if a.Blocks[i][j] != b.Blocks[i][j] {
				return false
			}
		}
	}
	for i := range a.Point {
		if math.Float64bits(a.Point[i]) != math.Float64bits(b.Point[i]) {
			return false
		}
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return math.Float64bits(a.Residual) == math.Float64bits(b.Residual)
}

// TestResidualRejectsBrokenCertificates: Residual is +Inf for every way a
// partition's weights can fail to be a proof, and honest for a valid one.
func TestResidualRejectsBrokenCertificates(t *testing.T) {
	ms := randomMultiset(rand.New(rand.NewSource(2)), 8, 2, 0, 1)
	good, err := Lift(ms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(ms, good); r > 1e-9 {
		t.Fatalf("valid partition: residual %g", r)
	}
	if good.Weights[7] != 0 {
		t.Fatalf("member beyond the lifted prefix has weight %g", good.Weights[7])
	}
	broken := map[string]func(p *Partition){
		"nil weights":     func(p *Partition) { p.Weights = nil },
		"short weights":   func(p *Partition) { p.Weights = p.Weights[:6] },
		"negative weight": func(p *Partition) { p.Weights[p.Blocks[0][0]] = -1e-3 },
		"NaN weight":      func(p *Partition) { p.Weights[p.Blocks[1][0]] = math.NaN() },
		"infinite weight": func(p *Partition) { p.Weights[p.Blocks[1][0]] = math.Inf(1) },
		"massless block": func(p *Partition) {
			for _, idx := range p.Blocks[0] {
				p.Weights[idx] = 0
			}
		},
		"emptied block":      func(p *Partition) { p.Blocks[2], p.Blocks[1] = nil, append(p.Blocks[1], p.Blocks[2]...) },
		"out-of-range index": func(p *Partition) { p.Blocks[0] = append(p.Blocks[0], 99) },
		"wrong dimension":    func(p *Partition) { p.Point = append(p.Point, 0) },
	}
	for name, mutate := range broken {
		p := &Partition{Point: good.Point.Clone(), Weights: append([]float64(nil), good.Weights...)}
		for _, blk := range good.Blocks {
			p.Blocks = append(p.Blocks, append([]int(nil), blk...))
		}
		mutate(p)
		if r := Residual(ms, p); !math.IsInf(r, 1) {
			t.Errorf("%s: residual %g, want +Inf", name, r)
		}
	}
	if r := Residual(ms, nil); !math.IsInf(r, 1) {
		t.Errorf("nil partition: residual %g, want +Inf", r)
	}
}
