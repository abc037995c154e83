package bvc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// The synchronous algorithms require lock-step rounds and therefore run on
// the simulator (Simulate*); the asynchronous algorithms are event-driven
// and run equally on the simulator and on the live service. This file hosts
// the one-shot live runner: RunAsyncCluster is n Services on loopback, each
// running a single instance.

// oneShotTimeout stands in for "no timeout" on a one-shot run: ctx bounds
// the run, and a decided process keeps serving lagging peers until Close.
// It stays well inside the Duration range because the service doubles it.
const oneShotTimeout = time.Duration(math.MaxInt64 / 4)

// RunAsyncCluster runs the §3.2 asynchronous approximate algorithm with one
// Service per process over a loopback TCP mesh, each proposing its input as
// instance 0, and returns the decisions in process order. All processes
// are correct; Byzantine behaviour and adversarial scheduling belong to the
// simulator, the OS scheduler and the network stack supply real asynchrony
// here. Every process is closed before RunAsyncCluster returns.
func RunAsyncCluster(ctx context.Context, cfg Config, inputs []Vector) ([]Vector, error) {
	if _, err := cfg.asyncConfig(); err != nil {
		return nil, err
	}
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("bvc: %d inputs for n=%d", len(inputs), cfg.N)
	}
	tmpl := make([]string, cfg.N)
	for i := range tmpl {
		tmpl[i] = "127.0.0.1:0"
	}
	svcs := make([]*Service, 0, cfg.N)
	defer func() {
		for _, s := range svcs {
			_ = s.Close()
		}
	}()
	addrs := make([]string, cfg.N)
	for i := range cfg.N {
		s, err := NewService(ServiceConfig{
			Config:          cfg,
			ID:              i,
			Addrs:           tmpl,
			InstanceTimeout: oneShotTimeout,
		})
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		svcs = append(svcs, s)
		addrs[i] = s.Addr()
	}

	// A failed process cannot be waited out: the first error cancels the
	// others and is the one reported.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	out := make([]Vector, cfg.N)
	for i, s := range svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Establish(ctx, addrs)
			var res <-chan ServiceResult
			if err == nil {
				res, err = s.Propose(0, inputs[i])
			}
			if err == nil {
				// A decided process keeps serving lagging peers until the
				// deferred Close.
				select {
				case r := <-res:
					out[i], err = r.Decision, r.Err
				case <-ctx.Done():
					err = ctx.Err()
				}
			}
			if err != nil {
				once.Do(func() {
					first = fmt.Errorf("bvc: process %d: %w", i, err)
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}
