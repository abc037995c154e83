package core_test

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

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/sim"
)

var updateNodeTranscripts = flag.Bool("update-node-transcripts", false, "rewrite testdata/node_transcripts.golden from this build")

// The node transcript goldens pin what an AsyncNode says, call by call: the
// status of every Start and Step and every message it leaves in its outbox,
// in order, including long after it decided. The hashes in
// testdata/node_transcripts.golden were recorded from the implementation in
// which a decided node kept every table of its exchange until the service
// dropped it; a node that releases state once it can no longer send must
// emit exactly the same.

// nodeTranscript chains every recorded call into one SHA-256.
type nodeTranscript struct {
	h           [32]byte
	buf         []byte
	calls, msgs int
}

func (tr *nodeTranscript) u64(xs ...uint64) {
	for _, x := range xs {
		tr.buf = binary.BigEndian.AppendUint64(tr.buf, x)
	}
}

func (tr *nodeTranscript) vec(v geometry.Vector) {
	tr.u64(uint64(len(v)))
	for _, x := range v {
		tr.u64(math.Float64bits(x))
	}
}

func (tr *nodeTranscript) flush() {
	tr.buf = append(tr.buf, tr.h[:]...)
	tr.h = sha256.Sum256(tr.buf)
	tr.buf = tr.buf[:0]
}

// call records one Start or Step of node at: its status and its outbox.
func (tr *nodeTranscript) call(at sim.ProcID, st core.StepStatus, out []aad.Msg) {
	tr.calls++
	tr.u64('S', uint64(at), uint64(st), uint64(len(out)))
	for _, m := range out {
		tr.msgs++
		tr.u64(uint64(m.Kind))
		switch m.Kind {
		case aad.KindRBC:
			tr.u64(uint64(m.RBC.Phase), uint64(m.RBC.Origin), uint64(m.RBC.Tag))
			tr.vec(m.RBC.Value)
		case aad.KindReport:
			tr.u64(uint64(m.Report.Round), uint64(m.Report.Origin))
		}
	}
	tr.flush()
}

// runNodeTranscript runs n−1 correct AsyncNodes and one equivocating origin
// (process n−1) for three rounds under a seeded shuffled schedule. Once the
// queue is dry, so every correct node has decided, every message any node
// was delivered is replayed to it twice more, each pass in a fresh shuffled
// order. The equivocator's traffic is queued up front: per round, two INITs
// with different values split between the halves of the mesh, conflicting
// echoes and readies, a bogus echo in every honest instance, and reports
// naming every origin. It also reports how many correct nodes were
// quiescent before the replays.
func runNodeTranscript(t *testing.T, n, f, d int, witnessOpt bool, seed int64) (tr *nodeTranscript, quiescent int) {
	t.Helper()
	const rounds = 3
	rng := rand.New(rand.NewSource(seed))
	randVec := func() geometry.Vector {
		v := make(geometry.Vector, d)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	cfg := core.AsyncConfig{
		Params: core.Params{
			N: n, F: f, D: d,
			Epsilon: 0.05,
			Bounds:  geometry.UniformBox(d, 0, 1),
		},
		WitnessOpt: witnessOpt,
		MaxRounds:  rounds,
	}
	nodes := make([]*core.AsyncNode, n-1)
	for p := range nodes {
		nd, err := core.NewAsyncNode(cfg, sim.ProcID(p), randVec())
		if err != nil {
			t.Fatalf("NewAsyncNode(%d): %v", p, err)
		}
		nodes[p] = nd
	}

	tr = &nodeTranscript{}
	var queue, delivered []meshMsg
	post := func(from sim.ProcID, st core.StepStatus) {
		out := nodes[from].Outbox()
		tr.call(from, st, out)
		for _, o := range out {
			for to := range nodes {
				queue = append(queue, meshMsg{from: from, to: sim.ProcID(to), msg: o})
			}
		}
	}

	byz := sim.ProcID(n - 1)
	for round := 1; round <= rounds; round++ {
		a, b := randVec(), randVec()
		for to := range nodes {
			v, w := b, a
			if to < len(nodes)/2 {
				v, w = a, b
			}
			rbc := func(ph broadcast.RBCPhase, origin sim.ProcID, val geometry.Vector) {
				queue = append(queue, meshMsg{from: byz, to: sim.ProcID(to), msg: aad.Msg{Kind: aad.KindRBC,
					RBC: broadcast.RBCMsg{Phase: ph, Origin: origin, Tag: round, Value: val}}})
			}
			rbc(broadcast.RBCInit, byz, v)
			rbc(broadcast.RBCInit, byz, w)
			rbc(broadcast.RBCEcho, byz, v)
			rbc(broadcast.RBCReady, byz, w)
			rbc(broadcast.RBCEcho, sim.ProcID(to), randVec())
			for o := 0; o < n; o++ {
				queue = append(queue, meshMsg{from: byz, to: sim.ProcID(to), msg: aad.Msg{Kind: aad.KindReport,
					Report: aad.ReportMsg{Round: round, Origin: sim.ProcID((o + to) % n)}}})
			}
		}
	}

	for p, nd := range nodes {
		post(sim.ProcID(p), nd.Start())
	}
	for len(queue) > 0 {
		i := rng.Intn(len(queue))
		it := queue[i]
		last := len(queue) - 1
		queue[i] = queue[last]
		queue = queue[:last]
		delivered = append(delivered, it)
		post(it.to, nodes[it.to].Step(it.from, &it.msg))
	}
	for p, nd := range nodes {
		dec, err := nd.Decision()
		if err != nil {
			t.Fatalf("node %d: %v", p, err)
		}
		tr.u64('D', uint64(p))
		tr.vec(dec)
		tr.flush()
	}

	for _, nd := range nodes {
		if nd.Quiescent() {
			quiescent++
		}
	}

	for pass := 0; pass < 2; pass++ {
		rng.Shuffle(len(delivered), func(i, j int) { delivered[i], delivered[j] = delivered[j], delivered[i] })
		for i := range delivered {
			it := &delivered[i]
			nd := nodes[it.to]
			tr.call(it.to, nd.Step(it.from, &it.msg), nd.Outbox())
		}
	}
	return tr, quiescent
}

func TestNodeTranscriptGolden(t *testing.T) {
	// quiescent pins which case replays into lingering nodes (an
	// equivocated tag never retires) and which into quiescent ones.
	cases := []struct {
		name       string
		n, f, d    int
		witnessOpt bool
		seed       int64
		quiescent  int
	}{
		{"n5f1d2-equivocator", 5, 1, 2, false, 21, 0},
		{"n7f2d1-equivocator-witnessopt", 7, 2, 1, true, 22, 6},
	}
	path := filepath.Join("testdata", "node_transcripts.golden")
	var lines []string
	for _, tc := range cases {
		tr, quiescent := runNodeTranscript(t, tc.n, tc.f, tc.d, tc.witnessOpt, tc.seed)
		if quiescent != tc.quiescent {
			t.Errorf("%s: %d correct nodes quiescent before the replays, want %d", tc.name, quiescent, tc.quiescent)
		}
		lines = append(lines, fmt.Sprintf("%s calls=%d msgs=%d sha256=%s",
			tc.name, tr.calls, tr.msgs, hex.EncodeToString(tr.h[:])))
	}
	if *updateNodeTranscripts {
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
			t.Errorf("node transcript diverged from the recorded node\n got %s\nwant %s", lines[i], sc.Text())
		}
		lines[i] = ""
	}
	for _, l := range lines {
		if l != "" {
			t.Errorf("golden is missing %s", l)
		}
	}
}
