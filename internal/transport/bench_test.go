package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
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

// pageHeapValues is how many 100 B values the page benchmarks allocate:
// ~30 MB, well past the caches, so a page's values are cold when it is
// encoded, as they are on a live ring.
const pageHeapValues = 300_000

// benchPages splits pageHeapValues values of 100 B into scan pages of 512
// items. scattered allocates the values one by one and gives them keys in
// random order, so a page's values lie all over the heap; otherwise each
// page's values sit back to back in one buffer.
func benchPages(scattered bool) [][]storage.Item {
	const page, size = 512, 100
	vals := make([][]byte, pageHeapValues)
	if scattered {
		for i := range vals {
			vals[i] = make([]byte, size)
		}
		rand.New(rand.NewSource(7)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	} else {
		buf := make([]byte, size*len(vals))
		for i := range vals {
			vals[i] = buf[i*size : (i+1)*size : (i+1)*size]
		}
	}
	pages := make([][]storage.Item, len(vals)/page)
	for p := range pages {
		items := make([]storage.Item, page)
		for i := range items {
			items[i] = storage.Item{Key: keyspace.Key(p*page + i), Value: vals[p*page+i]}
		}
		pages[p] = items
	}
	return pages
}

// pageResponse is the answer to one scan call: a full page and its cursor.
func pageResponse(items []storage.Item) *Response {
	return &Response{OK: true, Items: items, More: true, Cursor: items[len(items)-1].Key + 1,
		Peer: PeerRef{Addr: "127.0.0.1:7001", Key: keyspace.FromFloat(0.5)}}
}

// BenchmarkPageEncode encodes one 512 × 100 B scan page per op into a
// pooled frame, the server's half of a scan call, cycling through pages so
// each op reads values it has not touched for a while.
func BenchmarkPageEncode(b *testing.B) {
	for _, layout := range []struct {
		name      string
		scattered bool
	}{{"scattered", true}, {"contiguous", false}} {
		b.Run(layout.name, func(b *testing.B) {
			pages := benchPages(layout.scattered)
			resps := make([]*Response, len(pages))
			for i, items := range pages {
				resps[i] = pageResponse(items)
			}
			f := acquireFrame()
			defer releaseFrame(f)
			b.SetBytes(512 * 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.encode(uint64(i), resps[i%len(resps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageDecode decodes one 512 × 100 B scan page per op, the
// client's half of a scan call.
func BenchmarkPageDecode(b *testing.B) {
	pages := benchPages(false)[:16]
	frames := make([][]byte, len(pages))
	for i, items := range pages {
		frames[i] = appendResponse(nil, pageResponse(items))
	}
	b.SetBytes(512 * 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp Response
		if err := decodeResponse(frames[i%len(frames)], &resp, nil); err != nil {
			b.Fatal(err)
		}
	}
}
