package harness

import (
	"math"
	"math/rand"

	"repro"
)

// UniformInputs draws n input vectors uniformly from [lo, hi]^d.
func UniformInputs(rng *rand.Rand, n, d int, lo, hi float64) []bvc.Vector {
	out := make([]bvc.Vector, n)
	for i := range out {
		v := make(bvc.Vector, d)
		for j := range v {
			v[j] = lo + rng.Float64()*(hi-lo)
		}
		out[i] = v
	}
	return out
}

// SimplexInputs draws n probability vectors (non-negative, coordinates
// summing to 1) — the paper's motivating workload where validity means
// "the decision is still a probability vector".
func SimplexInputs(rng *rand.Rand, n, d int) []bvc.Vector {
	out := make([]bvc.Vector, n)
	for i := range out {
		v := make(bvc.Vector, d)
		var sum float64
		for j := range v {
			v[j] = -math.Log(1 - rng.Float64()) // Exp(1): Dirichlet(1,…,1)
			sum += v[j]
		}
		for j := range v {
			v[j] /= sum
		}
		out[i] = v
	}
	return out
}

// spreadInf returns the largest per-coordinate range over the vectors at
// one history index.
func spreadInf(vectors []bvc.Vector) float64 {
	if len(vectors) == 0 {
		return 0
	}
	d := len(vectors[0])
	var worst float64
	for j := 0; j < d; j++ {
		lo, hi := vectors[0][j], vectors[0][j]
		for _, v := range vectors[1:] {
			if v[j] < lo {
				lo = v[j]
			}
			if v[j] > hi {
				hi = v[j]
			}
		}
		if r := hi - lo; r > worst {
			worst = r
		}
	}
	return worst
}

// historySpreads aligns correct processes' histories and returns the spread
// per round.
func historySpreads(res *bvc.Result) []float64 {
	var hs [][]bvc.Vector
	minLen := -1
	for _, p := range res.Processes {
		if p.Byzantine || len(p.History) == 0 {
			continue
		}
		hs = append(hs, p.History)
		if minLen < 0 || len(p.History) < minLen {
			minLen = len(p.History)
		}
	}
	if minLen <= 0 {
		return nil
	}
	out := make([]float64, minLen)
	for round := 0; round < minLen; round++ {
		col := make([]bvc.Vector, len(hs))
		for i, h := range hs {
			col[i] = h[round]
		}
		out[round] = spreadInf(col)
	}
	return out
}
