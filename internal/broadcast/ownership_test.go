package broadcast

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/sim"
)

// TestRBCHandleAllocs is the allocation budget of the steady-state step: a
// message for an instance that exists, carrying a value the instance has
// seen, allocates nothing — whether it is only tallied, triggers the READY,
// or delivers.
func TestRBCHandleAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, f, tags = 5, 1, 12
	r, err := NewRBC(n, f, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := vec(0.25, 0.75)
	var msgs []busItem
	for tag := 1; tag <= tags; tag++ {
		r.Handle(1, RBCMsg{Phase: RBCInit, Origin: 1, Tag: tag, Value: v}) // warm: slab + value
		for _, ph := range []RBCPhase{RBCEcho, RBCReady} {
			for from := 0; from < n; from++ {
				msgs = append(msgs, busItem{from: sim.ProcID(from), msg: RBCMsg{Phase: ph, Origin: 1, Tag: tag, Value: v}})
			}
		}
	}
	next, readies, deliveries := 0, 0, 0
	allocs := testing.AllocsPerRun(len(msgs)-1, func() {
		out, dels := r.Handle(msgs[next].from, msgs[next].msg)
		readies += len(out)
		deliveries += len(dels)
		next++
	})
	if allocs != 0 {
		t.Errorf("Handle on a warm instance: %v allocs per message, want 0", allocs)
	}
	if readies != tags || deliveries != tags {
		t.Errorf("measured messages produced %d readies and %d deliveries, want %d each", readies, deliveries, tags)
	}
}

// TestRBCCopiesValueOnce pins the ownership rule: the instance that tallies
// a value owns the one copy, so the caller may reuse the vector it passed
// to Broadcast or Handle at once, and everything the RBC emits for the
// value — INIT, ECHO, READY, delivery — is the same storage.
func TestRBCCopiesValueOnce(t *testing.T) {
	const n, f = 4, 1
	want := vec(2, 3)

	r, err := NewRBC(n, f, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	mine := want.Clone()
	initMsg, err := r.Broadcast(1, mine)
	if err != nil {
		t.Fatal(err)
	}
	mine[0], mine[1] = -1, -1 // the caller's vector is the caller's again
	if !initMsg.Value.Equal(want) {
		t.Fatalf("INIT value %v changed with the caller's vector, want %v", initMsg.Value, want)
	}

	// Every message arrives in one reused decode buffer, scribbled over
	// after each Handle — what a reader's buffer looks like to the RBC.
	buf := make(geometry.Vector, 2)
	handle := func(from sim.ProcID, ph RBCPhase) ([]RBCMsg, []RBCDelivery) {
		copy(buf, want)
		out, dels := r.Handle(from, RBCMsg{Phase: ph, Origin: 0, Tag: 1, Value: buf})
		buf[0], buf[1] = 99, 99
		return out, dels
	}
	sameStorage := func(what string, v geometry.Vector) {
		t.Helper()
		if !v.Equal(want) {
			t.Fatalf("%s carries %v, want %v", what, v, want)
		}
		if &v[0] != &initMsg.Value[0] {
			t.Errorf("%s has storage of its own; want the instance's one copy", what)
		}
	}
	out, _ := handle(0, RBCInit)
	if len(out) != 1 || out[0].Phase != RBCEcho {
		t.Fatalf("INIT produced %v, want one ECHO", out)
	}
	sameStorage("ECHO", out[0].Value)
	var ready []RBCMsg
	for from := sim.ProcID(0); from < 3; from++ { // echo quorum is 3
		ready, _ = handle(from, RBCEcho)
	}
	if len(ready) != 1 || ready[0].Phase != RBCReady {
		t.Fatalf("third ECHO produced %v, want one READY", ready)
	}
	sameStorage("READY", ready[0].Value)
	var dels []RBCDelivery
	for from := sim.ProcID(0); from < 3; from++ { // 2f+1 readies deliver
		_, dels = handle(from, RBCReady)
	}
	if len(dels) != 1 {
		t.Fatalf("third READY delivered %d values, want 1", len(dels))
	}
	sameStorage("delivery", dels[0].Value)
}

// TestRBCHandleReturnsScratch documents the return contract: the slices
// Handle returns are the RBC's scratch, good until its next Handle call —
// a caller that wants the messages longer copies them out (by value; the
// vectors inside stay valid).
func TestRBCHandleReturnsScratch(t *testing.T) {
	r, err := NewRBC(4, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := r.Handle(1, RBCMsg{Phase: RBCInit, Origin: 1, Tag: 1, Value: vec(1)})
	kept := first[0] // copied out
	second, _ := r.Handle(2, RBCMsg{Phase: RBCInit, Origin: 2, Tag: 1, Value: vec(2)})
	if &first[0] != &second[0] {
		t.Fatal("Handle returned fresh storage; the scratch contract (and its allocation budget) is gone")
	}
	if first[0].Origin != 2 {
		t.Errorf("the retained slice still reads origin %d; expected it to show the second call's ECHO", first[0].Origin)
	}
	if kept.Origin != 1 || !kept.Value.Equal(vec(1)) {
		t.Errorf("the copied-out message changed: %+v", kept)
	}
}

// TestRBCHorizonDropsTags: a tag outside [0, horizon] creates no state,
// from Handle or from Broadcast.
func TestRBCHorizonDropsTags(t *testing.T) {
	r, err := NewRBC(4, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetHorizon(3)
	for _, tag := range []int{-1, 4, 1 << 30} {
		if out, dels := r.Handle(1, RBCMsg{Phase: RBCInit, Origin: 1, Tag: tag, Value: vec(1)}); out != nil || dels != nil {
			t.Errorf("tag %d: Handle produced output", tag)
		}
		if _, err := r.Broadcast(tag, vec(1)); err == nil {
			t.Errorf("tag %d: Broadcast accepted a tag past the horizon", tag)
		}
	}
	if len(r.tags) != 0 {
		t.Errorf("out-of-horizon tags left %d tag slots behind", len(r.tags))
	}
	if out, _ := r.Handle(1, RBCMsg{Phase: RBCInit, Origin: 1, Tag: 3, Value: vec(1)}); len(out) != 1 {
		t.Error("the horizon tag itself was dropped")
	}
}
