// Streaming-read benchmark: the chunked blob layer over the paged scan.
package oscar

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
)

// BenchmarkBlobRoundTrip writes and streams back a 16 MiB blob through a
// live in-memory cluster: chunking, per-chunk and whole-blob checksums,
// prefetch pipelining, and the paged scan underneath.
func BenchmarkBlobRoundTrip(b *testing.B) {
	ctx := context.Background()
	c, err := StartCluster(ctx, 8, WithSeed(15))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cl := c.Node(0)
	base := KeyFromFloat(0.35)

	data := make([]byte, 16<<20)
	rand.New(rand.NewSource(99)).Read(data)
	b.SetBytes(int64(len(data)) * 2) // one put + one get per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.PutBlob(ctx, base, bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		br, err := cl.GetBlob(ctx, base)
		if err != nil {
			b.Fatal(err)
		}
		got, err := io.Copy(io.Discard, br)
		if err != nil {
			b.Fatal(err)
		}
		if got != int64(len(data)) {
			b.Fatalf("streamed %d bytes, want %d", got, len(data))
		}
		if err := br.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
