package sim

import (
	"math/rand"
	"time"
)

// DelayModel decides the network delay of each message. Implementations
// must be deterministic functions of their arguments and the provided PRNG
// (which the engine seeds deterministically), so executions replay exactly.
// The engine is serial, so implementations need not be safe for concurrent
// use.
type DelayModel interface {
	// Delay returns the link latency for a message from → to sent at the
	// given virtual time.
	Delay(from, to ProcID, at time.Duration, rng *rand.Rand) time.Duration
}

// ConstantDelay delivers every message after a fixed latency. With a
// constant delay every process advances in lock step — the most benign
// asynchronous schedule.
type ConstantDelay struct {
	D time.Duration
}

// Delay implements DelayModel.
func (c ConstantDelay) Delay(_, _ ProcID, _ time.Duration, _ *rand.Rand) time.Duration {
	return c.D
}

// UniformDelay draws latencies uniformly from [Min, Max].
type UniformDelay struct {
	Min, Max time.Duration
}

// Delay implements DelayModel.
func (u UniformDelay) Delay(_, _ ProcID, _ time.Duration, rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)+1))
}

// ExponentialDelay draws latencies from an exponential distribution with
// the given mean, capped at Cap (0 means 10× mean). Heavy-tailed delays are
// the classic stress test for asynchronous algorithms.
type ExponentialDelay struct {
	Mean time.Duration
	Cap  time.Duration
}

// Delay implements DelayModel.
func (e ExponentialDelay) Delay(_, _ ProcID, _ time.Duration, rng *rand.Rand) time.Duration {
	limit := e.Cap
	if limit <= 0 {
		limit = 10 * e.Mean
	}
	d := time.Duration(rng.ExpFloat64() * float64(e.Mean))
	if d > limit {
		d = limit
	}
	return d
}

// ShiftedExponentialDelay draws latencies as Floor plus an exponential
// tail with the given mean, capped at Cap (0 means Floor + 10× tail mean).
// It keeps the heavy-tailed stress schedule of ExponentialDelay while no
// message arrives sooner than Floor, as on a network with a fixed
// propagation delay.
type ShiftedExponentialDelay struct {
	Floor    time.Duration
	TailMean time.Duration
	Cap      time.Duration
}

// Delay implements DelayModel.
func (s ShiftedExponentialDelay) Delay(_, _ ProcID, _ time.Duration, rng *rand.Rand) time.Duration {
	limit := s.Cap
	if limit <= 0 {
		limit = s.Floor + 10*s.TailMean
	}
	d := s.Floor + time.Duration(rng.ExpFloat64()*float64(s.TailMean))
	if d > limit {
		d = limit
	}
	if d < s.Floor {
		d = s.Floor // Cap below Floor: the floor still holds
	}
	return d
}

// StarveSenders wraps an inner model and adds Extra latency to every message
// *sent by* the processes in Slow. This is the adversarial schedule used by
// the asynchronous lower-bound and restricted-round experiments: the
// scheduler legally hides up to f correct processes from everyone else for
// as long as it likes.
type StarveSenders struct {
	Inner DelayModel
	Slow  map[ProcID]bool
	Extra time.Duration
}

// Delay implements DelayModel.
func (s StarveSenders) Delay(from, to ProcID, at time.Duration, rng *rand.Rand) time.Duration {
	d := s.Inner.Delay(from, to, at, rng)
	if s.Slow[from] {
		d += s.Extra
	}
	return d
}
