package broadcast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/raceflag"
	"repro/internal/sim"
)

// refRBC is the reference model of RBC's retirement: the rule it had
// before state retired per broadcast. A tag's slab of all n instances is
// made on the tag's first message and released only once all n have
// finished; until then every message for the tag — a finished instance's
// too — is tallied in the slab. Everything RBC emits must match what this
// model emits, message for message (TestRBCMatchesTagRetirement).
type refRBC struct {
	n, f    int
	self    sim.ProcID
	dim     int
	horizon int
	tags    []refTag
	retired int
}

type refTag struct {
	insts    []refInst
	finished int
}

type refInst struct {
	echoed, readied, delivered bool
	from                       []bool
	vals                       []rbcVal
}

func newRefRBC(n, f int, self sim.ProcID, dim, horizon int) *refRBC {
	return &refRBC{n: n, f: f, self: self, dim: dim, horizon: horizon}
}

func (r *refRBC) inst(origin sim.ProcID, tag int) *refInst {
	for len(r.tags) <= tag {
		r.tags = append(r.tags, refTag{})
	}
	t := &r.tags[tag]
	if t.insts == nil {
		if t.finished == r.n {
			return nil
		}
		t.insts = make([]refInst, r.n)
		for i := range t.insts {
			t.insts[i].from = make([]bool, 2*r.n)
		}
	}
	return &t.insts[origin]
}

func (r *refRBC) finish(tag int) {
	t := &r.tags[tag]
	t.finished++
	if t.finished == r.n {
		t.insts = nil
		r.retired++
	}
}

func (i *refInst) tally(value geometry.Vector) *rbcVal {
	for idx := range i.vals {
		if i.vals[idx].value.Equal(value) {
			return &i.vals[idx]
		}
	}
	i.vals = append(i.vals, rbcVal{value: value.Clone()})
	return &i.vals[len(i.vals)-1]
}

func (r *refRBC) valid(tag int, value geometry.Vector) bool {
	return tag >= 0 && tag <= r.horizon && value.Dim() == r.dim && value.IsFinite()
}

func (r *refRBC) Broadcast(tag int, value geometry.Vector) (RBCMsg, error) {
	if !r.valid(tag, value) {
		return RBCMsg{}, fmt.Errorf("invalid tag %d", tag)
	}
	inst := r.inst(r.self, tag)
	if inst == nil {
		return RBCMsg{}, fmt.Errorf("tag %d already retired", tag)
	}
	return RBCMsg{Phase: RBCInit, Origin: r.self, Tag: tag, Value: inst.tally(value).value}, nil
}

func (r *refRBC) Handle(from sim.ProcID, msg RBCMsg) ([]RBCMsg, []RBCDelivery) {
	if int(msg.Origin) < 0 || int(msg.Origin) >= r.n || int(from) < 0 || int(from) >= r.n {
		return nil, nil
	}
	if !r.valid(msg.Tag, msg.Value) || msg.Phase < RBCInit || msg.Phase > RBCReady {
		return nil, nil
	}
	inst := r.inst(msg.Origin, msg.Tag)
	if inst == nil {
		return nil, nil
	}
	var ready, deliver *rbcVal
	switch msg.Phase {
	case RBCInit:
		if from != msg.Origin || inst.echoed {
			return nil, nil
		}
		inst.echoed = true
		out := []RBCMsg{{Phase: RBCEcho, Origin: msg.Origin, Tag: msg.Tag, Value: inst.tally(msg.Value).value}}
		if inst.readied && inst.delivered {
			r.finish(msg.Tag)
		}
		return out, nil
	case RBCEcho:
		if inst.from[from] {
			return nil, nil
		}
		inst.from[from] = true
		c := inst.tally(msg.Value)
		c.echoes++
		if c.echoes >= (r.n+r.f)/2+1 && !inst.readied {
			ready = c
		}
	case RBCReady:
		if inst.from[r.n+int(from)] {
			return nil, nil
		}
		inst.from[r.n+int(from)] = true
		c := inst.tally(msg.Value)
		c.readies++
		if c.readies >= r.f+1 && !inst.readied {
			ready = c
		}
		if c.readies >= 2*r.f+1 && !inst.delivered {
			deliver = c
		}
	}
	var out []RBCMsg
	var dels []RBCDelivery
	if ready != nil {
		inst.readied = true
		out = []RBCMsg{{Phase: RBCReady, Origin: msg.Origin, Tag: msg.Tag, Value: ready.value}}
		if inst.echoed && inst.delivered {
			r.finish(msg.Tag)
		}
	}
	if deliver != nil {
		inst.delivered = true
		dels = []RBCDelivery{{Origin: msg.Origin, Tag: msg.Tag, Value: deliver.value}}
		if inst.echoed && inst.readied {
			r.finish(msg.Tag)
		}
	}
	return out, dels
}

// TestRBCMatchesTagRetirement drives RBC and the reference model side by
// side, one pair per correct process, through random schedules over the
// tags 0, 1, R, R+1 and MaxInt32 against horizon R = 4, and asserts after
// every step that both emit the same messages and deliveries and report the
// same RetiredTags. The schedules mix in what moves a tag's retirement:
//
//   - silent origins: a correct process skips its broadcast on some tags;
//   - a slow correct origin, which broadcasts only once everything else
//     has been delivered, by when its tag has released its slab at some
//     process, so its messages find the tag without one — the path the
//     test requires to be taken (it needs n−f other origins to finish
//     first, so the shapes include meshes with fewer than f Byzantine
//     processes);
//   - Byzantine processes that equivocate as origin, spoof INITs for other
//     origins, and send echoes and readies of their own choosing,
//     duplicated and in any phase, some malformed;
//   - replays of messages already delivered.
//
// Tags past the horizon must be dropped by both and make no state.
func TestRBCMatchesTagRetirement(t *testing.T) {
	const R = 4
	tags := []int{0, 1, R, R + 1, math.MaxInt32}
	released := 0
	for _, shape := range []struct{ n, f, byz int }{{4, 1, 0}, {4, 1, 1}, {5, 1, 0}, {5, 1, 1}, {7, 2, 1}, {7, 2, 2}} {
		for seed := int64(1); seed <= 100; seed++ {
			released += runRetirementSchedule(t, shape.n, shape.f, shape.byz, R, tags, seed)
			if t.Failed() {
				t.Fatalf("n=%d f=%d, %d Byzantine, seed %d", shape.n, shape.f, shape.byz, seed)
			}
		}
	}
	t.Logf("%d (process, tag) pairs released their slab before the slow origin broadcast", released)
	if released == 0 {
		t.Error("no schedule had a tag release its slab before the slow origin broadcast")
	}
}

// runRetirementSchedule runs one schedule, with processes n−b..n−1
// Byzantine, and returns how many (process, tag) pairs had released their
// slab with the slow origin still untouched when it broadcast.
func runRetirementSchedule(t *testing.T, n, f, b, R int, tags []int, seed int64) (released int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const dim = 2
	byz := func(p sim.ProcID) bool { return int(p) >= n-b }
	slow := sim.ProcID(n - b - 1)
	news := make([]*RBC, n-b)
	refs := make([]*refRBC, n-b)
	for p := range news {
		r, err := NewRBC(n, f, sim.ProcID(p), dim)
		if err != nil {
			t.Fatal(err)
		}
		r.SetHorizon(R)
		news[p], refs[p] = r, newRefRBC(n, f, sim.ProcID(p), dim, R)
	}
	values := []geometry.Vector{vec(0.5, 0.5), vec(-1, 2), vec(3, 0), vec(0, 0)}
	malformed := []geometry.Vector{vec(1), vec(math.NaN(), 0), vec(math.Inf(1), 1)}

	type item struct {
		from, to sim.ProcID
		msg      RBCMsg
	}
	var pool, history []item
	toAll := func(from sim.ProcID, m RBCMsg) {
		for to := range news {
			pool = append(pool, item{from: from, to: sim.ProcID(to), msg: m})
		}
	}
	broadcast := func(p sim.ProcID, tag int) {
		v := values[int(p)%len(values)]
		mNew, errNew := news[p].Broadcast(tag, v)
		mRef, errRef := refs[p].Broadcast(tag, v)
		if (errNew == nil) != (errRef == nil) {
			t.Fatalf("process %d Broadcast(%d): error %v, reference %v", p, tag, errNew, errRef)
		}
		if errNew != nil {
			if tag <= R {
				t.Fatalf("process %d Broadcast(%d): %v", p, tag, errNew)
			}
			return
		}
		if !sameMsgs([]RBCMsg{mNew}, []RBCMsg{mRef}) {
			t.Fatalf("process %d Broadcast(%d): %+v, reference %+v", p, tag, mNew, mRef)
		}
		toAll(p, mNew)
	}
	// byzantine makes one message of a faulty process's choosing.
	byzantine := func() item {
		from := sim.ProcID(n - b + rng.Intn(b))
		m := RBCMsg{
			Phase:  RBCPhase(1 + rng.Intn(3)),
			Origin: sim.ProcID(rng.Intn(n)),
			Tag:    tags[rng.Intn(len(tags))],
			Value:  values[rng.Intn(len(values))],
		}
		if m.Phase == RBCInit && rng.Intn(2) == 0 {
			m.Origin = from // equivocation, not a spoof
		}
		if rng.Intn(10) == 0 {
			m.Value = malformed[rng.Intn(len(malformed))]
		}
		return item{from: from, to: sim.ProcID(rng.Intn(n - b)), msg: m}
	}
	deliver := func(it item) {
		oNew, dNew := news[it.to].Handle(it.from, it.msg)
		oRef, dRef := refs[it.to].Handle(it.from, it.msg)
		if !sameMsgs(oNew, oRef) || !sameDels(dNew, dRef) {
			t.Fatalf("process %d, %v from %d (origin %d, tag %d, value %v): emitted %+v and %+v, reference %+v and %+v",
				it.to, it.msg.Phase, it.from, it.msg.Origin, it.msg.Tag, it.msg.Value, oNew, dNew, oRef, dRef)
		}
		if a, b := news[it.to].RetiredTags(), refs[it.to].retired; a != b {
			t.Fatalf("process %d: RetiredTags %d, reference %d", it.to, a, b)
		}
		history = append(history, it)
		for _, o := range oNew {
			toAll(it.to, o)
		}
	}
	drain := func() {
		for len(pool) > 0 {
			switch k := rng.Intn(16); {
			case k == 0 && len(history) > 0:
				deliver(history[rng.Intn(len(history))])
			case k <= 2 && b > 0:
				deliver(byzantine())
			default:
				idx := rng.Intn(len(pool))
				it := pool[idx]
				pool[idx] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				deliver(it)
			}
		}
	}

	silent := make(map[[2]int]bool)
	for p := sim.ProcID(0); p < slow; p++ {
		for _, tag := range tags {
			if rng.Intn(6) == 0 {
				silent[[2]int{int(p), tag}] = true
				continue
			}
			broadcast(p, tag)
		}
	}
	drain()
	for p, r := range news {
		for _, tag := range tags[:3] {
			if !r.slabHeld(tag) && r.tags[tag].finished > 0 && !r.finished(tag, slow) {
				released++
			}
		}
		if len(r.tags) > R+1 {
			t.Fatalf("process %d holds %d tag slots, horizon %d", p, len(r.tags), R)
		}
	}
	for _, tag := range tags {
		broadcast(slow, tag)
	}
	drain()

	// Totality at the end: every correct process delivered every correct
	// origin's broadcast on every tag within the horizon.
	for p, r := range news {
		for _, tag := range tags[:3] {
			for o := sim.ProcID(0); o <= slow; o++ {
				if silent[[2]int{int(o), tag}] || byz(o) {
					continue
				}
				if !r.finished(tag, o) {
					t.Errorf("process %d: origin %d's broadcast on tag %d never finished", p, o, tag)
				}
			}
		}
	}
	return released
}

func sameMsgs(a, b []RBCMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Phase != b[i].Phase || a[i].Origin != b[i].Origin || a[i].Tag != b[i].Tag || !a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}

func sameDels(a, b []RBCDelivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Origin != b[i].Origin || a[i].Tag != b[i].Tag || !a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}

// TestRBCPastHorizonTagsFree: a message or Broadcast for a tag past the
// horizon — R+1, MaxInt32 — or below 0 allocates nothing, emits nothing and
// makes no tag slot.
func TestRBCPastHorizonTagsFree(t *testing.T) {
	const R = 4
	r, err := NewRBC(5, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetHorizon(R)
	v := vec(1, 2)
	var msgs []RBCMsg
	for _, tag := range []int{-1, R + 1, math.MaxInt32} {
		for ph := RBCInit; ph <= RBCReady; ph++ {
			msgs = append(msgs, RBCMsg{Phase: ph, Origin: 1, Tag: tag, Value: v})
		}
	}
	emitted, next := 0, 0
	handle := func() {
		m := msgs[next%len(msgs)]
		out, dels := r.Handle(1, m)
		emitted += len(out) + len(dels)
		next++
	}
	if raceflag.Enabled {
		for range msgs {
			handle()
		}
	} else if allocs := testing.AllocsPerRun(len(msgs), handle); allocs != 0 {
		t.Errorf("past-horizon messages: %v allocs per message, want 0", allocs)
	}
	if emitted != 0 {
		t.Errorf("past-horizon messages emitted %d messages and deliveries", emitted)
	}
	for _, tag := range []int{-1, R + 1, math.MaxInt32} {
		if _, err := r.Broadcast(tag, v); err == nil {
			t.Errorf("Broadcast(%d) accepted a tag past the horizon", tag)
		}
	}
	if len(r.tags) != 0 || len(r.done) != 0 {
		t.Errorf("past-horizon messages made %d tag slots and %d done words", len(r.tags), len(r.done))
	}
}
