package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	bvc "repro"
	"repro/internal/geometry"
)

// -seed is the only source of randomness: every input vector, sim seed,
// chaos seed and service seed is a pure function of it, so equal seeds give
// byte-identical inputs. Streams keep the uses apart.
const (
	streamLiveInputs uint64 = iota + 1
	streamSimSeeds
	streamChaos
	streamService
	streamKernels
)

// mix is splitmix64's finalizer: a bijection on uint64 whose outputs for
// consecutive inputs are statistically independent.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// derive returns the i-th value of the named stream of seed.
func derive(seed int64, stream, i uint64) uint64 {
	return mix(mix(uint64(seed)^stream*0xd6e8feb86659fd93) + i)
}

// unit maps a derived value to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// liveInputs returns the n input vectors of live instance id, uniform in
// [0,1]^d. Inputs are drawn for every process, crashed or not, so a
// workload's fault schedule never shifts the inputs of the survivors.
func liveInputs(seed int64, id uint64, n, d int) []bvc.Vector {
	out := make([]bvc.Vector, n)
	for p := range out {
		v := make(bvc.Vector, d)
		for j := range v {
			v[j] = unit(derive(seed, streamLiveInputs, (id*uint64(n)+uint64(p))*uint64(d)+uint64(j)))
		}
		out[p] = v
	}
	return out
}

// simSeed returns the seed of a sim workload's i-th execution.
func simSeed(seed int64, i int) int64 {
	return int64(derive(seed, streamSimSeeds, uint64(i)) >> 1)
}

// kernelPoints draws k points uniform in [0,1]^d for the per-layer
// kernels, from the same generator as the workloads' inputs.
func kernelPoints(seed int64, salt uint64, k, d int) []geometry.Vector {
	out := make([]geometry.Vector, k)
	for i := range out {
		v := make(geometry.Vector, d)
		for j := range v {
			v[j] = unit(derive(seed, streamKernels, (salt<<32)+uint64(i*d+j)))
		}
		out[i] = v
	}
	return out
}

// inputsHash fingerprints the inputs a run generates from its seed: the
// first count live instances or sim seeds. Tests pin that equal seeds hash
// equal and different seeds do not.
func inputsHash(w *workload, seed int64, count int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for i := 0; i < count; i++ {
		if !w.live {
			put(uint64(simSeed(seed, i)))
			continue
		}
		for _, v := range liveInputs(seed, uint64(i+1), liveN, liveConfig().D) {
			for _, x := range v {
				put(math.Float64bits(x))
			}
		}
	}
	return h.Sum64()
}
