package service

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// checkRanges fails unless both generations hold sorted, disjoint ranges
// with a gap between each two — the form has and add rely on.
func checkRanges(t *testing.T, ts *tombSet) {
	t.Helper()
	for _, rs := range [][]tombRange{ts.cur, ts.old} {
		for i, r := range rs {
			if r.lo > r.hi || i > 0 && r.lo-rs[i-1].hi <= 1 {
				t.Fatalf("ranges out of form at %d: %v", i, rs)
			}
		}
	}
}

// TestTombSetMatchesOracle drives tombSets through sequential,
// out-of-order, strided and sparse id streams on a virtual clock that
// expires them every loop tick, against a map of each id's last add: an id
// is present for at least the TTL after add and absent 2×TTL after it, and
// an id never added — a neighbour of an added one included — is never
// present. Each stream also runs with its ids spread stride apart, so at
// stride 4 nothing may merge and every gap must stay out of the ranges.
func TestTombSetMatchesOracle(t *testing.T) {
	const ttl = 10 * tick
	// Each pattern yields, for the ids added at one step, id / stride.
	patterns := map[string]func(rng *rand.Rand, step uint64) []uint64{
		"sequential": func(_ *rand.Rand, step uint64) []uint64 {
			return []uint64{3 * step, 3*step + 1, 3*step + 2}
		},
		"out-of-order": func(rng *rand.Rand, step uint64) []uint64 {
			ks := make([]uint64, 8)
			for i, j := range rng.Perm(len(ks)) {
				ks[i] = 8*step + uint64(j)
			}
			return ks
		},
		"descending": func(_ *rand.Rand, step uint64) []uint64 {
			return []uint64{1000 - 2*step, 999 - 2*step}
		},
		"strided": func(_ *rand.Rand, step uint64) []uint64 {
			return []uint64{4 * step, 4*step + 2}
		},
		"sparse": func(rng *rand.Rand, _ uint64) []uint64 {
			return []uint64{uint64(rng.Intn(1 << 12)), uint64(rng.Intn(1 << 12)), uint64(rng.Intn(64))}
		},
		"top": func(rng *rand.Rand, _ uint64) []uint64 {
			return []uint64{0, uint64(rng.Intn(3)), math.MaxUint64 - uint64(rng.Intn(3))}
		},
	}
	for name, gen := range patterns {
		for _, stride := range []uint64{1, 4} {
			t.Run(fmt.Sprintf("%s/stride=%d", name, stride), func(t *testing.T) {
				off := stride - 1 // ids ≡ off mod stride
				rng := rand.New(rand.NewSource(int64(stride)))
				now := time.Unix(0, 0)
				ts := newTombSet(ttl, now)
				last := make(map[uint64]time.Time)
				for step := uint64(0); step < 200; step++ {
					now = now.Add(tick)
					ts.expire(now)
					for _, k := range gen(rng, step) {
						id := min(k, (math.MaxUint64-off)/stride)*stride + off
						ts.add(id)
						last[id] = now
					}
					checkRanges(t, &ts)
					for id, at := range last {
						age := now.Sub(at)
						switch got := ts.has(id); {
						case age < ttl && !got:
							t.Fatalf("stride %d step %d: id %d absent %v after add", stride, step, id, age)
						case age >= 2*ttl && got:
							t.Fatalf("stride %d step %d: id %d present %v after add", stride, step, id, age)
						}
						for _, nb := range []uint64{id - 1, id + 1} {
							if _, added := last[nb]; !added && ts.has(nb) {
								t.Fatalf("stride %d step %d: id %d present, never added", stride, step, nb)
							}
						}
					}
				}
			})
		}
	}
}

// TestTombSetConstantSpace: 100 000 ids finished in sequence, in order and
// in shuffled blocks of 50, across several rotations, leave at most 2
// ranges in each generation.
func TestTombSetConstantSpace(t *testing.T) {
	const ids, block = 100_000, 50
	for _, shuffled := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		now := time.Unix(0, 0)
		ts := newTombSet(time.Second, now)
		for first := uint64(0); first < ids; first += block {
			for j, p := range rng.Perm(block) {
				id := first + uint64(j)
				if shuffled {
					id = first + uint64(p)
				}
				ts.add(id)
			}
			now = now.Add(10 * time.Millisecond)
			ts.expire(now)
			if len(ts.cur) > 2 || len(ts.old) > 2 {
				t.Fatalf("shuffled %v, after id %d: %d ranges current, %d old", shuffled, first+block-1, len(ts.cur), len(ts.old))
			}
		}
		if !ts.has(ids - 3) { // among the last added
			t.Errorf("shuffled %v: the last ids are forgotten", shuffled)
		}
	}
}
