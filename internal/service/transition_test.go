package service

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"
)

// The transition tests hold the two lifecycle tables to an expectation
// written out here independently — state, event, next state, and what the
// edge leaves behind — so that dropping or bending any one edge of
// linkEdges or instEdges fails them.

// wantLinkEdges is the peer-link table as docs/SERVICE.md draws it, for an
// accepting side; a dialing side that lands in idle dials at once.
var wantLinkEdges = map[linkState]map[linkEvent]linkState{
	linkIdle:      {linkDial: linkDialing, linkInstall: linkJoined, linkReaddress: linkIdle, linkClose: linkClosed},
	linkDialing:   {linkDialFail: linkDialing, linkInstall: linkJoined, linkReaddress: linkDialing, linkClose: linkClosed},
	linkJoined:    {linkInstall: linkJoined, linkFrame: linkConnected, linkDrop: linkIdle, linkReaddress: linkIdle, linkClose: linkClosed},
	linkConnected: {linkInstall: linkJoined, linkGoodbye: linkLeaving, linkDrop: linkIdle, linkReaddress: linkIdle, linkClose: linkClosed},
	linkLeaving:   {linkInstall: linkJoined, linkDrop: linkGone, linkReaddress: linkIdle, linkClose: linkClosed},
	linkGone:      {linkInstall: linkJoined, linkReaddress: linkIdle, linkClose: linkClosed},
	linkClosed:    {},
}

// linkPath reaches each state from a new link.
var linkPath = map[linkState][]linkEvent{
	linkIdle:      nil,
	linkDialing:   {linkDial},
	linkJoined:    {linkInstall},
	linkConnected: {linkInstall, linkFrame},
	linkLeaving:   {linkInstall, linkFrame, linkGoodbye},
	linkGone:      {linkInstall, linkFrame, linkGoodbye, linkDrop},
	linkClosed:    {linkClose},
}

// stuckDialer is a transport whose dials hang until the attempt is cut
// short, so a dial loop a test starts never installs anything.
type stuckDialer struct{ netTransport }

func (stuckDialer) Dial(ctx context.Context, _ int, _ string) (net.Conn, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// tableLink returns a detached link of process 1 to peer 0 (dialer) or 2
// (accepting side). Its dial loop, when an edge starts one, hangs in a
// stuckDialer until the test ends.
func tableLink(t *testing.T, dialer bool) (*Service, *peerLink) {
	t.Helper()
	cfg := Config{ID: 1, OutboxDepth: 4, Transport: stuckDialer{}}.withDefaults()
	svc := &Service{cfg: cfg, tr: cfg.Transport, stop: make(chan struct{})}
	svc.dials, svc.endDials = context.WithCancel(context.Background())
	peer := 2
	if dialer {
		peer = 0
	}
	p := newPeerLink(svc, peer, "table")
	t.Cleanup(func() {
		close(svc.stop)
		svc.endDials()
		p.fire(linkClose)
		svc.wg.Wait()
	})
	return svc, p
}

// apply fires ev on p under its lock, with a fresh pipe end for install.
func apply(t *testing.T, p *peerLink, ev linkEvent) bool {
	var conn net.Conn
	if ev == linkInstall {
		c, remote := net.Pipe()
		t.Cleanup(func() { _ = c.Close(); _ = remote.Close() })
		conn = c
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.to(ev, conn)
}

// TestLinkTransitions fires every event in every state, on both sides of
// a link, and checks the next state, that an edge missing from the table
// is refused without a trace, and each edge's postconditions: a conn is
// held exactly in the states that say so, the dialing side never rests in
// idle, and a drop while joined counts as a failed dial on the dialing
// side only.
func TestLinkTransitions(t *testing.T) {
	if len(linkEdges) != len(wantLinkEdges) {
		t.Fatalf("linkEdges has %d states, want %d", len(linkEdges), len(wantLinkEdges))
	}
	for _, dialer := range []bool{false, true} {
		for from := linkIdle; from <= linkClosed; from++ {
			for ev := linkDial; ev <= linkClose; ev++ {
				svc, p := tableLink(t, dialer)
				for _, step := range linkPath[from] {
					if !apply(t, p, step) {
						t.Fatalf("dialer=%v: path to %v refused %v", dialer, from, step)
					}
				}
				before := svc.ctr.dialFailures.Load()
				gen := p.gen
				want, legal := wantLinkEdges[from][ev]
				if legal && want == linkIdle && dialer {
					want = linkDialing
				}
				if !legal {
					want = from
				}
				got := apply(t, p, ev)
				p.mu.Lock()
				st, conn, fails := p.state, p.conn, svc.ctr.dialFailures.Load()-before
				p.mu.Unlock()
				name := func() string { return fmt.Sprintf("%v --%d-->", from, ev) }
				if got != legal {
					t.Errorf("dialer=%v: %s accepted=%v, want %v", dialer, name(), got, legal)
				}
				if st != want {
					t.Errorf("dialer=%v: %s %v, want %v", dialer, name(), st, want)
				}
				if (conn != nil) != st.hasConn() {
					t.Errorf("dialer=%v: %s %v holds conn %v", dialer, name(), st, conn)
				}
				if !legal && p.gen != gen {
					t.Errorf("dialer=%v: refused %s changed the conn generation", dialer, name())
				}
				wantFails := int64(0)
				if legal && (ev == linkDialFail || ev == linkDrop && from == linkJoined && dialer) {
					wantFails = 1
				}
				if fails != wantFails {
					t.Errorf("dialer=%v: %s counted %d dial failures, want %d", dialer, name(), fails, wantFails)
				}
			}
		}
	}
}

// TestLinkReconnectCount: the dialing side counts every install after its
// first in Stats.Reconnects; the accepting side counts none.
func TestLinkReconnectCount(t *testing.T) {
	for _, dialer := range []bool{false, true} {
		svc, p := tableLink(t, dialer)
		for _, ev := range []linkEvent{linkInstall, linkDrop, linkInstall, linkInstall} {
			apply(t, p, ev)
		}
		want := int64(0)
		if dialer {
			want = 2
		}
		if got := svc.ctr.reconnects.Load(); got != want {
			t.Errorf("dialer=%v: Reconnects = %d after three installs, want %d", dialer, got, want)
		}
	}
}

// wantInstEdges is the instance table as docs/SERVICE.md draws it.
var wantInstEdges = map[instState]map[instEvent]instState{
	instRunning:   {instDecided: instLingering, instFailed: instEnded, instTimedOut: instEnded, instClosed: instEnded, instRefused: instEnded},
	instLingering: {instQuiesced: instEnded, instExpired: instEnded},
	instEnded:     {},
	instWaiting:   {instProposed: instRunning, instExpired: instEnded},
}

// TestInstanceTransitions fires every event in every instance state and
// checks the next state and that an edge missing from the table is
// refused. A bare instance must be running: finish answers refused
// proposals and those left at Close with one.
func TestInstanceTransitions(t *testing.T) {
	if (instance{}).state != instRunning {
		t.Fatalf("a bare instance is %v, want running", (instance{}).state)
	}
	if len(instEdges) != len(wantInstEdges) {
		t.Fatalf("instEdges has %d states, want %d", len(instEdges), len(wantInstEdges))
	}
	path := map[instState][]instEvent{
		instWaiting:   nil,
		instRunning:   {instProposed},
		instLingering: {instProposed, instDecided},
		instEnded:     {instProposed, instFailed},
	}
	for from := range instState(len(instEdges)) {
		for ev := instDecided; ev <= instProposed; ev++ {
			inst := &instance{state: instWaiting}
			for _, step := range path[from] {
				if !inst.move(step) {
					t.Fatalf("path to %v refused %v", from, step)
				}
			}
			want, legal := wantInstEdges[from][ev]
			if !legal {
				want = from
			}
			if got := inst.move(ev); got != legal || inst.state != want {
				t.Errorf("%v --%v--> accepted=%v state %v, want accepted=%v state %v", from, ev, got, inst.state, legal, want)
			}
		}
	}
}

// TestInstanceEndingsCount checks what finish and tombstone leave behind
// for the endings that need no protocol run: a timeout counts and
// tombstones, a refused duplicate leaves the live instance of its id
// alone, a closed one counts nowhere, and the linger endings release the
// lingering gauge, counting only quiescence.
func TestInstanceEndingsCount(t *testing.T) {
	sh := detachedShard(0, 5, Config{})
	ctr := &sh.svc.ctr
	open := func(id uint64) *instance {
		ctr.active.Add(1) // as Propose counts it
		inst := &instance{id: id, res: make(chan Result, 1), started: time.Now()}
		sh.instances[id] = inst
		return inst
	}

	timedOut := open(1)
	sh.finish(timedOut, instTimedOut)
	if res := <-timedOut.res; res.Err != ErrInstanceTimeout {
		t.Errorf("timed-out result error = %v", res.Err)
	}
	if _, live := sh.instances[1]; live || !sh.tombs.has(1) || ctr.timedOut.Load() != 1 {
		t.Errorf("timeout: live=%v tombstoned=%v TimedOut=%d", live, sh.tombs.has(1), ctr.timedOut.Load())
	}
	sh.finish(timedOut, instTimedOut) // ended: refused, nothing counted twice
	if ctr.timedOut.Load() != 1 || ctr.active.Load() != 0 {
		t.Errorf("second finish counted: TimedOut=%d active=%d", ctr.timedOut.Load(), ctr.active.Load())
	}

	live := open(2)
	ctr.active.Add(1)
	dup := &instance{id: 2, res: make(chan Result, 1)}
	sh.finish(dup, instRefused)
	if res := <-dup.res; res.Err != ErrDuplicateInstance {
		t.Errorf("duplicate result error = %v", res.Err)
	}
	if sh.instances[2] != live || live.state != instRunning || sh.tombs.has(2) {
		t.Error("refusing a duplicate touched the live instance of its id")
	}
	sh.finish(live, instClosed)
	if res := <-live.res; res.Err != ErrServiceClosed {
		t.Errorf("closed result error = %v", res.Err)
	}

	for _, ev := range []instEvent{instQuiesced, instExpired} {
		inst := open(uint64(10 + ev))
		inst.move(instDecided) // as finish leaves a decided instance
		ctr.active.Add(-1)
		ctr.lingering.Add(1)
		sh.tombstone(inst, ev)
		if _, live := sh.instances[inst.id]; live || !sh.tombs.has(inst.id) {
			t.Errorf("%v: instance still registered or not tombstoned", ev)
		}
	}
	if ctr.lingering.Load() != 0 || ctr.quiesced.Load() != 1 {
		t.Errorf("Lingering=%d Quiesced=%d, want 0 and 1", ctr.lingering.Load(), ctr.quiesced.Load())
	}
	st := sh.svc.Stats()
	if st.ActiveInstances != 0 || st.Proposed != 0 || st.Decided+st.Failed != 0 {
		t.Errorf("stats after the endings: %+v", st)
	}
}
