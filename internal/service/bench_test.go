package service

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/geometry"
)

// discardConn accepts every Write and reports it on wrote.
type discardConn struct {
	net.Conn // nil: the writer only calls Write and Close
	wrote    chan int
}

func (c discardConn) Write(b []byte) (int, error) { c.wrote <- len(b); return len(b), nil }
func (c discardConn) Close() error                { return nil }

// BenchmarkLinkWriteBatch is the pool/write-batch layer record: queue k
// frames on a link, ring its writer, and wait for the one Write that
// carries them (to a conn that discards). The time is per frame; k = 1 is
// the unbatched hand-off cost batching amortizes.
func BenchmarkLinkWriteBatch(b *testing.B) {
	frame := report(1)
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			svc, p := newBenchLink(1024)
			conn := discardConn{wrote: make(chan int)}
			connect(p, conn)
			done := make(chan struct{})
			go func() { p.writeLoop(); close(done) }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				for j := 0; j < k; j++ {
					p.enqueue(frame, nil)
				}
				p.out.ring()
				if got := <-conn.wrote; got != k*len(frame) {
					b.Fatalf("Write carried %d bytes, want %d", got, k*len(frame))
				}
			}
			b.StopTimer()
			close(svc.stop)
			p.fire(linkClose)
			<-done
		})
	}
}

// BenchmarkShardDispatch is the dispatch layer record: a reader-side burst
// of k decoded frames appended to the instance loop's inbox, swapped out by
// the running loop and routed by instance id. The tombstone variant routes
// to a finished instance, so the protocol's own cost stays out; the live
// variant routes to an open instance, so every frame is one protocol step
// (an ECHO the instance has counted — the commonest step of a real run)
// and allocs/op is the step's. No sockets; the producer runs ahead until
// QueueDepth pushes back, so the time per frame is the loop's.
func BenchmarkShardDispatch(b *testing.B) {
	for _, live := range []bool{false, true} {
		for _, k := range []int{1, 16, 256} {
			name := fmt.Sprintf("k=%d", k)
			if live {
				name = "live/" + name
			}
			b.Run(name, func(b *testing.B) {
				sh := detachedShard(0, 5, Config{QueueDepth: 4096, InstanceTimeout: time.Hour})
				msg := inMsg{instance: 9, from: 1}
				if live {
					openDetached(b, sh, 0, 9, geometry.Vector{0.5, 0.5})
					msg.msg = aad.Msg{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{
						Phase: broadcast.RBCEcho, Origin: 2, Tag: 1, Value: geometry.Vector{0.25, 0.75}}}
				} else {
					sh.tombs.add(9)
				}
				done := make(chan struct{})
				go func() { sh.run(); close(done) }()
				burst := make([]inMsg, k)
				for i := range burst {
					burst[i] = msg
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += k {
					if !sh.receive(burst) {
						b.Fatal("shard stopped")
					}
				}
				for sh.in.depth() > 0 {
					runtime.Gosched()
				}
				b.StopTimer()
				close(sh.svc.stop)
				<-done
			})
		}
	}
}
