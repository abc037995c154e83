package aad

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/sim"
)

var updateTranscripts = flag.Bool("update-transcripts", false, "rewrite testdata/transcripts.golden from this build")

// The transcript goldens pin the RBC and Coordinator state machines: the
// hashes in testdata/transcripts.golden were recorded from the
// map-and-clone implementation this package had before its tables became
// slabs, and every later build must emit the identical messages, in the
// identical order, with the identical results.

// transcript hashes everything the correct processes emit, in order.
type transcript struct {
	h             [32]byte
	buf           []byte
	msgs, results int
}

func (tr *transcript) u64(xs ...uint64) {
	for _, x := range xs {
		tr.buf = binary.BigEndian.AppendUint64(tr.buf, x)
	}
}

// flush chains the buffered record into the running hash.
func (tr *transcript) flush() {
	tr.buf = append(tr.buf, tr.h[:]...)
	tr.h = sha256.Sum256(tr.buf)
	tr.buf = tr.buf[:0]
}

func (tr *transcript) vec(v geometry.Vector) {
	tr.u64(uint64(len(v)))
	for _, x := range v {
		tr.u64(math.Float64bits(x))
	}
}

func (tr *transcript) msg(from sim.ProcID, m Msg) {
	tr.msgs++
	tr.u64('M', uint64(from), uint64(m.Kind))
	switch m.Kind {
	case KindRBC:
		tr.u64(uint64(m.RBC.Phase), uint64(m.RBC.Origin), uint64(m.RBC.Tag))
		tr.vec(m.RBC.Value)
	case KindReport:
		tr.u64(uint64(m.Report.Round), uint64(m.Report.Origin))
	}
	tr.flush()
}

func (tr *transcript) result(at sim.ProcID, res *Result) {
	tr.results++
	tr.u64('R', uint64(at), uint64(res.Round), uint64(len(res.Tuples)))
	for _, tp := range res.Tuples {
		tr.u64(uint64(tp.Origin))
		tr.vec(tp.Value)
	}
	tr.u64(uint64(len(res.WitnessPrefixes)))
	for _, p := range res.WitnessPrefixes {
		tr.u64(uint64(len(p)))
		for _, o := range p {
			tr.u64(uint64(o))
		}
	}
	tr.flush()
}

// transcriptRun drives the correct processes of one seeded exchange for
// `rounds` rounds under a seeded shuffled schedule. With byz set, process
// n−1 is an equivocating origin (the adversary.NewAsyncEquivocator pattern,
// plus conflicting echoes, readies and reports so multi-value tallies are
// exercised): everything it sends is queued up front and shuffled in with
// the honest traffic.
type transcriptRun struct {
	tr     transcript
	rng    *rand.Rand
	rounds int
	coords []*Coordinator // nil: the Byzantine process
	round  []int
	queue  []busItem
}

func (r *transcriptRun) broadcast(from sim.ProcID, msgs []Msg) {
	for _, m := range msgs {
		r.tr.msg(from, m)
		for to, c := range r.coords {
			if c != nil {
				r.queue = append(r.queue, busItem{from: from, to: sim.ProcID(to), msg: m})
			}
		}
	}
}

// start begins p's next round with value v and keeps going while rounds
// complete on the spot (their traffic arrived before the local start).
func (r *transcriptRun) start(t *testing.T, p sim.ProcID, v geometry.Vector) {
	for {
		r.round[p]++
		out, err := r.coords[p].StartRound(r.round[p], v)
		if err != nil {
			t.Fatalf("process %d StartRound(%d): %v", p, r.round[p], err)
		}
		r.broadcast(p, out)
		res, ok := r.coords[p].Completed(r.round[p])
		if !ok {
			return
		}
		r.tr.result(p, res)
		if r.round[p] == r.rounds {
			return
		}
		v = nextValue(res)
	}
}

// nextValue is the process's next-round state: the mean of its B set.
func nextValue(res *Result) geometry.Vector {
	v := make(geometry.Vector, len(res.Tuples[0].Value))
	for _, tp := range res.Tuples {
		for i, x := range tp.Value {
			v[i] += x
		}
	}
	for i := range v {
		v[i] /= float64(len(res.Tuples))
	}
	return v
}

func runTranscript(t *testing.T, n, f int, byz bool, seed int64) *transcript {
	t.Helper()
	const dim, rounds = 2, 3
	r := &transcriptRun{
		rng:    rand.New(rand.NewSource(seed)),
		rounds: rounds,
		coords: make([]*Coordinator, n),
		round:  make([]int, n),
	}
	correct := n
	if byz {
		correct = n - 1
	}
	randVec := func() geometry.Vector {
		return geometry.Vector{r.rng.Float64(), r.rng.Float64()}
	}
	for p := 0; p < correct; p++ {
		c, err := NewCoordinator(n, f, sim.ProcID(p), dim)
		if err != nil {
			t.Fatal(err)
		}
		r.coords[p] = c
	}
	if byz {
		self := sim.ProcID(n - 1)
		split := n / 2
		for round := 1; round <= rounds; round++ {
			a, b := randVec(), randVec()
			for to := 0; to < correct; to++ {
				v, w := b, a
				if to < split {
					v, w = a, b
				}
				send := func(m Msg) {
					r.queue = append(r.queue, busItem{from: self, to: sim.ProcID(to), msg: m})
				}
				rbc := func(ph broadcast.RBCPhase, origin sim.ProcID, val geometry.Vector) {
					send(Msg{Kind: KindRBC, RBC: broadcast.RBCMsg{Phase: ph, Origin: origin, Tag: round, Value: val}})
				}
				rbc(broadcast.RBCInit, self, v)
				rbc(broadcast.RBCInit, self, w) // second INIT: must lose
				rbc(broadcast.RBCEcho, self, v)
				rbc(broadcast.RBCEcho, self, w) // second echo from one sender: dropped
				rbc(broadcast.RBCReady, self, w)
				rbc(broadcast.RBCEcho, sim.ProcID(to), randVec()) // a bogus value in an honest instance
				for o := 0; o < n; o++ {
					send(Msg{Kind: KindReport, Report: ReportMsg{Round: round, Origin: sim.ProcID((o + to) % n)}})
				}
			}
		}
	}
	for p := 0; p < correct; p++ {
		r.start(t, sim.ProcID(p), randVec())
	}
	for len(r.queue) > 0 {
		i := r.rng.Intn(len(r.queue))
		it := r.queue[i]
		last := len(r.queue) - 1
		r.queue[i] = r.queue[last]
		r.queue = r.queue[:last]
		out, results := r.coords[it.to].Handle(it.from, it.msg)
		r.broadcast(it.to, out)
		// At most one round completes per message; the next round's start
		// reuses the coordinator, so the result is consumed first.
		for i := range results {
			res := &results[i]
			r.tr.result(it.to, res)
			if res.Round != r.round[it.to] {
				t.Fatalf("process %d completed round %d while in round %d", it.to, res.Round, r.round[it.to])
			}
			if res.Round < rounds {
				r.start(t, it.to, nextValue(res))
			}
		}
	}
	for p := 0; p < correct; p++ {
		if _, ok := r.coords[p].Completed(rounds); !ok {
			t.Fatalf("process %d never completed round %d (in round %d)", p, rounds, r.round[p])
		}
	}
	return &r.tr
}

func TestTranscriptGolden(t *testing.T) {
	cases := []struct {
		name string
		n, f int
		byz  bool
		seed int64
	}{
		{"n5f1-honest", 5, 1, false, 11},
		{"n5f1-equivocator", 5, 1, true, 12},
		{"n7f2-honest", 7, 2, false, 13},
		{"n7f2-equivocator", 7, 2, true, 14},
	}
	path := filepath.Join("testdata", "transcripts.golden")
	var lines []string
	for _, tc := range cases {
		tr := runTranscript(t, tc.n, tc.f, tc.byz, tc.seed)
		lines = append(lines, fmt.Sprintf("%s msgs=%d results=%d sha256=%s",
			tc.name, tr.msgs, tr.results, hex.EncodeToString(tr.h[:])))
	}
	if *updateTranscripts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for i := 0; sc.Scan(); i++ {
		if i >= len(lines) {
			t.Fatalf("golden has more than %d lines", len(lines))
		}
		if sc.Text() != lines[i] {
			t.Errorf("transcript diverged from the recorded state machine\n got %s\nwant %s", lines[i], sc.Text())
		}
		lines[i] = ""
	}
	for _, l := range lines {
		if l != "" {
			t.Errorf("golden is missing %s", l)
		}
	}
}
