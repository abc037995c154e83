package bvc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestServiceWrapperEndToEnd(t *testing.T) {
	const n = 5
	cfg := Config{N: n, F: 1, D: 2, Epsilon: 0.05, Lo: []float64{0}, Hi: []float64{1}, MaxRounds: 4}
	svcs := make([]*Service, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tmpl := make([]string, n)
		for j := range tmpl {
			tmpl[j] = "127.0.0.1:0"
		}
		s, err := NewService(ServiceConfig{Config: cfg, ID: i, Addrs: tmpl, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("NewService(%d): %v", i, err)
		}
		t.Cleanup(func() { _ = s.Close() })
		svcs[i] = s
		addrs[i] = s.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range svcs {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Establish(context.Background(), addrs)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Establish(%d): %v", i, err)
		}
	}

	inputs := []Vector{{0.1, 0.9}, {0.2, 0.8}, {0.9, 0.1}, {0.5, 0.5}, {0.3, 0.7}}
	chans := make([]<-chan ServiceResult, n)
	for i, s := range svcs {
		ch, err := s.Propose(42, inputs[i])
		if err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("process %d: %v", i, res.Err)
			}
			if len(res.Decision) != 2 {
				t.Fatalf("process %d: decision %v", i, res.Decision)
			}
			for _, x := range res.Decision {
				if x < 0 || x > 1 {
					t.Fatalf("process %d: decision %v outside bounds", i, res.Decision)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("process %d: no result", i)
		}
	}
	if st := svcs[0].Stats(); st.Decided != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// FramesOut counts a frame only once its write completes, and process 0
	// can decide on the other processes' frames before its own writers have
	// run; so wait, boundedly, for them to send.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := svcs[0].Stats()
		if st.FramesOut > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no frame written within 10s, QueueDepth %d: %+v", st.QueueDepth, st)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svcs[0].Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := svcs[0].Propose(43, inputs[0]); !errors.Is(err, ErrServiceDraining) {
		t.Fatalf("Propose after Drain: %v, want ErrServiceDraining", err)
	}
}
