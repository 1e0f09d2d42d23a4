package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// benchInflights are the concurrency levels the transport benchmarks
// sweep: a single caller, a moderate fanout, and a heavy fanout.
var benchInflights = []int{1, 8, 64}

// benchCalls drives b.N calls through fn from `inflight` workers and
// reports aggregate throughput.
func benchCalls(b *testing.B, inflight int, fn func(*Request) (*Response, error)) {
	b.Helper()
	var wg sync.WaitGroup
	calls := make(chan int, inflight)
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				resp, err := fn(&Request{Op: OpPing, Key: keyspace.Key(i)})
				if err != nil {
					b.Error(err)
					return
				}
				if resp.Peer.Key != keyspace.Key(i) {
					b.Errorf("cross-talk at call %d", i)
					return
				}
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		calls <- i
	}
	close(calls)
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

// BenchmarkFrameEncode isolates the frame write path's encoding cost: a
// pooled wireFrame encoding one routing step, header and payload into one
// buffer.
func BenchmarkFrameEncode(b *testing.B) {
	req := &Request{
		Op: OpFindOwner, Key: keyspace.FromFloat(0.42),
		From:    PeerRef{Addr: "127.0.0.1:9999", Key: keyspace.FromFloat(0.17)},
		Exclude: []Addr{"127.0.0.1:9001", "127.0.0.1:9002"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := acquireFrame()
		if err := f.encode(uint64(i), req); err != nil {
			b.Fatal(err)
		}
		releaseFrame(f)
	}
}

// benchPooled runs the pooled-transport sweep for one endpoint flavour:
// both peers share opts, the pool is warmed outside the timed region, and
// each in-flight level gets its own sub-benchmark.
func benchPooled(b *testing.B, opts ...TCPOption) {
	server, err := ListenTCP("127.0.0.1:0", opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	server.Serve(echoHandler)

	for _, inflight := range benchInflights {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			client, err := ListenTCP("127.0.0.1:0", opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			// Warm the pool so dials happen outside the timed region.
			if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing}); err != nil {
				b.Fatal(err)
			}
			benchCalls(b, inflight, func(req *Request) (*Response, error) {
				return client.CallCtx(context.Background(), server.Addr(), req)
			})
		})
	}
}

// BenchmarkPooledMux measures the pooled, multiplexed transport: calls
// share persistent connections and demux by request id. The in-flight 8
// and 64 rows are the ones the caller-side flush's batching shows in.
func BenchmarkPooledMux(b *testing.B) { benchPooled(b) }

// BenchmarkPooledMuxTLS is BenchmarkPooledMux over TLS:
// the delta against the plaintext rows is the record-layer cost once the
// handshake is amortised by the pool.
func BenchmarkPooledMuxTLS(b *testing.B) {
	benchPooled(b, WithTLS(selfSignedTLS(b)))
}
