package broadcast

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// FuzzRBCRetire drives one RBC — process 0 of n = 5, f = 1 — through a
// fuzzer-chosen schedule of everything its peers send it for two tags: every
// origin's INIT and every peer's ECHO and READY, with process 4 Byzantine,
// and the RBC's own output looped back as process 0's messages. On tag 1
// process 4 equivocates as origin (two INITs; the honest peers split between
// the two values in their echoes and readies, and it sends both); on tag 2
// it behaves. Each schedule byte picks the next message from what is left; a
// byte below 32 repeats one already delivered. Once the bytes run out the
// rest is delivered in order.
//
// Retirement must be sound and final. When Retired(tag) first holds, the
// RBC has emitted an ECHO, a READY and a delivery for every origin of the
// tag, and has released the tag's slab; replaying every message of the tag
// delivered so far, in a schedule-derived order, then emits nothing and
// delivers nothing, and so does every later message of the tag. With the
// whole schedule delivered, tag 2 has retired.
func FuzzRBCRetire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 255, 254, 31, 17})
	f.Add(bytes.Repeat([]byte{200, 7, 99, 3}, 60))
	f.Add(bytes.Repeat([]byte{250, 33, 64}, 120))
	f.Fuzz(func(t *testing.T, sched []byte) {
		const n, fault, tags = 5, 1, 2
		const byz = sim.ProcID(n - 1)
		r, err := NewRBC(n, fault, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(sched)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))

		var pool, history []busItem
		send := func(from, origin sim.ProcID, ph RBCPhase, tag int, v float64) {
			pool = append(pool, busItem{from: from, msg: RBCMsg{Phase: ph, Origin: origin, Tag: tag, Value: vec(v)}})
		}
		for tag := 1; tag <= tags; tag++ {
			init, err := r.Broadcast(tag, vec(1))
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, busItem{from: 0, msg: init})
			for o := sim.ProcID(1); o < n; o++ {
				v, alt := float64(o+1), float64(o+1)
				if o == byz && tag == 1 {
					alt = -1
					send(o, o, RBCInit, tag, alt)
				}
				send(o, o, RBCInit, tag, v)
			}
			for s := sim.ProcID(1); s < n; s++ {
				for o := sim.ProcID(0); o < n; o++ {
					v := float64(o + 1)
					if o == byz && tag == 1 && (s >= n/2 || s == byz) {
						v = -1
					}
					send(s, o, RBCEcho, tag, v)
					send(s, o, RBCReady, tag, v)
					if o == byz && tag == 1 && s == byz {
						send(s, o, RBCEcho, tag, float64(o+1))
						send(s, o, RBCReady, tag, float64(o+1))
					}
				}
			}
		}

		type emitted struct{ echo, ready, delivery bool }
		seen := make([][]emitted, tags+1)
		for tag := range seen {
			seen[tag] = make([]emitted, n)
		}
		retired := make([]bool, tags+1)
		handle := func(it busItem) {
			tag := it.msg.Tag
			was := r.Retired(tag)
			out, dels := r.Handle(it.from, it.msg)
			if was && (len(out) != 0 || len(dels) != 0) {
				t.Fatalf("retired tag %d: %v from %d produced %v and %v", tag, it.msg.Phase, it.from, out, dels)
			}
			for _, o := range out {
				switch o.Phase {
				case RBCEcho:
					seen[tag][o.Origin].echo = true
				case RBCReady:
					seen[tag][o.Origin].ready = true
				}
				pool = append(pool, busItem{from: 0, msg: o})
			}
			for _, d := range dels {
				seen[tag][d.Origin].delivery = true
			}
			history = append(history, it)
			if was || !r.Retired(tag) {
				return
			}
			retired[tag] = true
			for o, e := range seen[tag] {
				if !e.echo || !e.ready || !e.delivery {
					t.Fatalf("tag %d retired, but origin %d emitted %+v", tag, o, e)
				}
			}
			if r.tags[tag].insts != nil {
				t.Fatalf("tag %d retired, but its slab is still held", tag)
			}
			var replay []busItem
			for _, old := range history {
				if old.msg.Tag == tag {
					replay = append(replay, old)
				}
			}
			rng.Shuffle(len(replay), func(i, j int) { replay[i], replay[j] = replay[j], replay[i] })
			for _, old := range replay {
				if out, dels := r.Handle(old.from, old.msg); len(out) != 0 || len(dels) != 0 {
					t.Fatalf("retired tag %d: replayed %v from %d produced %v and %v", tag, old.msg.Phase, old.from, out, dels)
				}
			}
		}

		for len(pool) > 0 {
			idx := 0
			if len(sched) > 0 {
				b := int(sched[0])
				sched = sched[1:]
				if b < 32 && len(history) > 0 {
					handle(history[b%len(history)])
					continue
				}
				idx = b % len(pool)
			}
			it := pool[idx]
			pool = append(pool[:idx], pool[idx+1:]...)
			handle(it)
		}
		if !retired[2] {
			t.Fatalf("tag 2 never retired: %+v", seen[2])
		}
		count := 0
		for tag := 1; tag <= tags; tag++ {
			if r.Retired(tag) {
				count++
			}
		}
		if r.RetiredTags() != count {
			t.Fatalf("RetiredTags() = %d, %d tags retired", r.RetiredTags(), count)
		}
	})
}

// Retired reports whether every instance of tag has finished: the RBC
// keeps no state for it and drops its messages, since none could make it
// send or deliver anything again.
func (r *RBC) Retired(tag int) bool {
	return tag >= 0 && tag < len(r.tags) && r.tags[tag].finished == r.n
}
