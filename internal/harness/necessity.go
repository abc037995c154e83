package harness

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/safearea"
	"repro/internal/tverberg"
)

// E1SyncNecessity reproduces Theorem 1's necessity argument: with
// n = (d+1)f processes, the proof's standard-basis construction (each basis
// vector and the origin replicated f times) makes the safe-area
// intersection empty, so no decision can satisfy agreement and validity;
// one more process restores Lemma 1's guarantee on every random instance.
func E1SyncNecessity(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Exact BVC necessity (synchronous): n = (d+1)f is insufficient",
		Claim: "Theorem 1: n ≥ max(3f+1, (d+1)f+1) is necessary for Exact BVC",
		Columns: []string{
			"d", "f", "n=(d+1)f", "Γ empty (proof's instance)",
			"n=(d+1)f+1", "Γ point found+verified (random)",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))
	for d := 1; d <= 5; d++ {
		for f := 1; f <= 2; f++ {
			// The proof's construction, replicated f× (simulation
			// argument for f > 1): f copies each of e_1 … e_d and 0.
			bad := make([]bvc.Vector, 0, (d+1)*f)
			for i := 0; i < d; i++ {
				e := make(bvc.Vector, d)
				e[i] = 1
				for k := 0; k < f; k++ {
					bad = append(bad, e)
				}
			}
			for k := 0; k < f; k++ {
				bad = append(bad, make(bvc.Vector, d))
			}
			empty, err := bvc.SafeAreaEmpty(bad, f)
			if err != nil {
				return nil, fmt.Errorf("E1 d=%d f=%d: %w", d, f, err)
			}

			// At the threshold, Lemma 1 guarantees non-emptiness for any
			// multiset. Verify constructively: find a point of Γ
			// (SafePoint) and membership-test it into every
			// (|Y|−f)-subset hull — numerically far better conditioned
			// than one monolithic emptiness LP.
			allVerified := true
			for trial := 0; trial < 5; trial++ {
				pts := UniformInputs(rng, (d+1)*f+1, d, -1, 1)
				pt, err := bvc.SafePoint(pts, f)
				if err != nil {
					return nil, fmt.Errorf("E1 threshold d=%d f=%d: %w", d, f, err)
				}
				in, err := bvc.SafeAreaContains(pts, f, pt)
				if err != nil {
					return nil, err
				}
				if !in {
					allVerified = false
				}
			}
			if !allVerified {
				t.Pass = false
			}
			if !empty {
				t.Pass = false
			}
			t.AddRow(d, f, (d+1)*f, check(empty), (d+1)*f+1, check(allVerified))
		}
	}
	t.Notes = append(t.Notes,
		"the proof's instance has empty Γ one process below the bound; at the bound a Γ point is constructed and verified")
	return t, nil
}

// E3TverbergLemma validates Lemma 1 and Theorem 2 statistically: every
// random multiset with |Y| = (d+1)f+1 points has a non-empty Γ(Y) and an
// exhaustively-findable Tverberg partition into f+1 parts.
func E3TverbergLemma(seed int64, trials int) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Lemma 1 / Tverberg's theorem on random multisets",
		Claim: "Γ(Y) ≠ ∅ and a Tverberg partition into f+1 parts exists whenever |Y| ≥ (d+1)f+1",
		Columns: []string{
			"d", "f", "|Y|", "trials", "Γ non-empty", "partition found", "partition verified",
		},
		Pass: true,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, df := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}} {
		d, f := df[0], df[1]
		size := (d+1)*f + 1
		nonEmpty, found, verified := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			pts := UniformInputs(rng, size, d, -5, 5)
			empty, err := bvc.SafeAreaEmpty(pts, f)
			if err != nil {
				return nil, err
			}
			if !empty {
				nonEmpty++
			}
			blocks, point, ok, err := bvc.TverbergPartition(pts, f+1)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			found++
			okAll := true
			for _, blk := range blocks {
				var blkPts []bvc.Vector
				for _, idx := range blk {
					blkPts = append(blkPts, pts[idx])
				}
				in, err := bvc.InConvexHull(blkPts, point)
				if err != nil {
					return nil, err
				}
				if !in {
					okAll = false
				}
			}
			if okAll {
				verified++
			}
		}
		if nonEmpty != trials || found != trials || verified != trials {
			t.Pass = false
		}
		t.AddRow(d, f, size, trials,
			fmt.Sprintf("%d/%d", nonEmpty, trials),
			fmt.Sprintf("%d/%d", found, trials),
			fmt.Sprintf("%d/%d", verified, trials))
	}
	return t, nil
}

// E4AsyncNecessity reproduces Theorem 4's necessity argument: with
// n = d+2 processes and f = 1 in an asynchronous system, the proof's input
// construction (x_i = 4ε·e_i for i ≤ d; x_{d+1} = 0; p_{d+2} arbitrarily
// slow) forces every process p_i (i ≤ d+1) to decide exactly its own
// input, so two correct decisions differ by 4ε — ε-agreement is impossible.
func E4AsyncNecessity() (*Table, error) {
	const eps = 0.25
	t := &Table{
		ID:    "E4",
		Title: "Approximate BVC necessity (asynchronous): n = d+2 is insufficient",
		Claim: "Theorem 4: n ≥ (d+2)f+1 is necessary for approximate BVC",
		Columns: []string{
			"d", "n=d+2", "forced decisions = own inputs", "max pairwise gap", "vs ε",
		},
		Pass: true,
	}
	for d := 1; d <= 5; d++ {
		inputs := make([]geometry.Vector, d+1) // x_1 … x_{d+1}; p_{d+2} silent
		for i := 0; i < d; i++ {
			v := geometry.NewVector(d)
			v[i] = 4 * eps
			inputs[i] = v
		}
		inputs[d] = geometry.NewVector(d)

		allForced := true
		for i := 0; i <= d; i++ {
			forced, err := forcedRegionIsOwnInput(inputs, i)
			if err != nil {
				return nil, fmt.Errorf("E4 d=%d process %d: %w", d, i, err)
			}
			if !forced {
				allForced = false
			}
		}
		// Max pairwise input gap: between any two of x_1…x_{d+1} at least
		// one coordinate differs by 4ε.
		gap := 4 * eps
		if !allForced {
			t.Pass = false
		}
		t.AddRow(d, d+2, check(allForced), gap, fmt.Sprintf("> ε = %g", eps))
	}
	t.Notes = append(t.Notes,
		"each p_i's validity-feasible region ∩_{j≠i} H(X_i^j) collapses to {x_i}: decisions 4ε apart",
		"with one more process ((d+2)f+1) the sufficiency runs of E5 converge to any ε")
	return t, nil
}

// forcedRegionIsOwnInput checks that ∩_{j≠i} H(X^j) = {inputs[i]}, where
// X^j drops input j — the decision region available to process i in the
// proof of Theorem 4. A convex region is a single point iff its
// lexicographic minimum and maximum coincide.
func forcedRegionIsOwnInput(inputs []geometry.Vector, i int) (bool, error) {
	var groups [][]geometry.Vector
	var negGroups [][]geometry.Vector
	for j := range inputs {
		if j == i {
			continue
		}
		var grp, neg []geometry.Vector
		for k := range inputs {
			if k == j {
				continue
			}
			grp = append(grp, inputs[k])
			neg = append(neg, inputs[k].Scale(-1))
		}
		groups = append(groups, grp)
		negGroups = append(negGroups, neg)
	}
	lexMin, ok, err := hull.LexMinCommonPoint(groups)
	if err != nil || !ok {
		return false, fmt.Errorf("region empty or error: %v", err)
	}
	negMin, ok, err := hull.LexMinCommonPoint(negGroups)
	if err != nil || !ok {
		return false, fmt.Errorf("negated region empty or error: %v", err)
	}
	lexMax := negMin.Scale(-1)
	const tol = 1e-6
	return lexMin.ApproxEqual(inputs[i], tol) && lexMax.ApproxEqual(inputs[i], tol), nil
}

// F1Heptagon reproduces the paper's Figure 1: the regular heptagon
// (n = (d+1)f+1 with d = 2, f = 2) admits a Tverberg partition into three
// parts — one triangle and two segments — with a common point.
func F1Heptagon() (*Table, error) {
	t := &Table{
		ID:      "F1",
		Title:   "Figure 1: Tverberg partition of the regular heptagon (d=2, f=2)",
		Claim:   "Theorem 2 guarantees a partition into f+1 = 3 parts with intersecting hulls",
		Columns: []string{"block", "vertex indices", "size"},
		Pass:    true,
	}
	ms := geometry.NewMultiset(2)
	for k := 0; k < 7; k++ {
		a := 2 * math.Pi * float64(k) / 7
		if err := ms.Add(geometry.Vector{math.Cos(a), math.Sin(a)}); err != nil {
			return nil, err
		}
	}
	part, ok, err := tverberg.Search(ms, 3)
	if err != nil {
		return nil, err
	}
	if !ok {
		t.Pass = false
		t.Notes = append(t.Notes, "no partition found — Theorem 2 violated")
		return t, nil
	}
	if err := tverberg.Verify(ms, part, 1e-6); err != nil {
		t.Pass = false
		t.Notes = append(t.Notes, "partition failed verification: "+err.Error())
	}
	sizes := map[int]int{}
	for b, blk := range part.Blocks {
		t.AddRow(b+1, fmt.Sprintf("%v", blk), len(blk))
		sizes[len(blk)]++
	}
	if sizes[3] != 1 || sizes[2] != 2 {
		t.Pass = false
		t.Notes = append(t.Notes, "expected one triangle and two segments")
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Tverberg point: %v (inside all three hulls)", part.Point))
	// The point is also in Γ of the heptagon with f = 2 (Lemma 1's chain).
	in, err := safearea.Contains(ms, 2, part.Point, 1e-6)
	if err != nil {
		return nil, err
	}
	if !in {
		t.Pass = false
		t.Notes = append(t.Notes, "Tverberg point not in Γ(Y) — Lemma 1 violated")
	} else {
		t.Notes = append(t.Notes, "Tverberg point confirmed inside Γ(Y) (Lemma 1)")
	}
	return t, nil
}
