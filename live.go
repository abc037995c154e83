package bvc

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// The synchronous algorithms require lock-step rounds and therefore run on
// the simulator (Simulate*); the asynchronous algorithms are event-driven
// and run equally on the simulator and on the live service. This file hosts
// the one-shot live runners: a TCPProcess is a Service that runs a single
// instance, and RunAsyncCluster is n of them on loopback.

// oneShotTimeout stands in for "no timeout" on a one-shot run: ctx bounds
// the run, and a decided process keeps serving lagging peers until Close.
// It stays well inside the Duration range because the service doubles it.
const oneShotTimeout = time.Duration(math.MaxInt64 / 4)

// RunAsyncCluster runs the §3.2 asynchronous approximate algorithm with one
// TCPProcess per process over a loopback TCP mesh, and returns the
// decisions in process order. All processes are correct; Byzantine
// behaviour and adversarial scheduling belong to the simulator, the OS
// scheduler and the network stack supply real asynchrony here. Every
// process is closed before RunAsyncCluster returns.
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
	procs := make([]*TCPProcess, 0, cfg.N)
	defer func() {
		for _, p := range procs {
			_ = p.Close()
		}
	}()
	addrs := make([]string, cfg.N)
	for i := range cfg.N {
		p, err := NewTCPProcess(cfg, i, tmpl, inputs[i])
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		procs = append(procs, p)
		addrs[i] = p.Addr()
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
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec, err := p.Run(ctx, addrs)
			if err != nil {
				once.Do(func() {
					first = fmt.Errorf("bvc: process %d: %w", i, err)
					cancel()
				})
			}
			out[i] = dec
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}

// TCPProcess is one process of a TCP-meshed asynchronous BVC cluster: a
// Service that runs exactly one instance. Use NewTCPProcess on every
// participating host, exchange listen addresses out of band, then call
// Run.
type TCPProcess struct {
	svc   *Service
	input Vector
}

// NewTCPProcess opens the listener for process id (listening on addrs[id],
// which may use port 0 — see Addr). The mesh is established and the
// algorithm runs when Run is called.
func NewTCPProcess(cfg Config, id int, addrs []string, input Vector) (*TCPProcess, error) {
	svc, err := NewService(ServiceConfig{
		Config:          cfg,
		ID:              id,
		Addrs:           addrs,
		InstanceTimeout: oneShotTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &TCPProcess{svc: svc, input: slices.Clone(input)}, nil
}

// Addr returns the actual listen address (useful when configured with port
// 0).
func (p *TCPProcess) Addr() string { return p.svc.Addr() }

// Run establishes the TCP mesh against the given final address list (nil
// reuses the construction-time addresses), executes the algorithm until
// decision or context cancellation, and returns the decided vector. The
// process keeps serving lagging peers after it decides, until Close.
func (p *TCPProcess) Run(ctx context.Context, addrs []string) (Vector, error) {
	if err := p.svc.Establish(ctx, addrs); err != nil {
		return nil, err
	}
	res, err := p.svc.Propose(0, p.input)
	if err != nil {
		return nil, err
	}
	select {
	case r := <-res:
		return r.Decision, r.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close releases the process's network resources.
func (p *TCPProcess) Close() error { return p.svc.Close() }
