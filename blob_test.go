package oscar

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// blobTestClient is one node of a live in-memory cluster, so the blob
// layer runs over Node's Scan-backed GetBlob.
func blobTestClient(t *testing.T) Client {
	t.Helper()
	c, err := StartCluster(context.Background(), 16, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c.Node(0)
}

func blobData(n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(77)).Read(data)
	return data
}

func TestBlobRoundTrip(t *testing.T) {
	ctx := context.Background()
	cl := blobTestClient(t)
	base := KeyFromFloat(0.25)

	// A size that does not divide evenly into chunks: the tail chunk is
	// short and both checksum layers still verify.
	data := blobData(10*64<<10 + 1234)
	m, err := cl.PutBlob(ctx, base, bytes.NewReader(data), WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != int64(len(data)) || m.Chunks != 11 || m.ChunkSize != 64<<10 {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.ChunkCRC) != m.Chunks {
		t.Fatalf("%d chunk checksums for %d chunks", len(m.ChunkCRC), m.Chunks)
	}

	br, err := cl.GetBlob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if br.Manifest().CRC != m.CRC {
		t.Fatalf("reader manifest crc %08x, put returned %08x", br.Manifest().CRC, m.CRC)
	}
	got, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("blob mismatch: %d bytes back, want %d", len(got), len(data))
	}
}

func TestBlobEmpty(t *testing.T) {
	ctx := context.Background()
	cl := blobTestClient(t)
	base := KeyFromFloat(0.6)

	m, err := cl.PutBlob(ctx, base, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != 0 || m.Chunks != 0 {
		t.Fatalf("empty blob manifest = %+v", m)
	}
	br, err := cl.GetBlob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	got, err := io.ReadAll(br)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty blob read = %d bytes, %v", len(got), err)
	}
}

func TestBlobMissing(t *testing.T) {
	ctx := context.Background()
	cl := blobTestClient(t)
	if _, err := cl.GetBlob(ctx, KeyFromFloat(0.111)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing blob = %v, want ErrNotFound", err)
	}
	if err := cl.DeleteBlob(ctx, KeyFromFloat(0.111)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing blob = %v, want ErrNotFound", err)
	}
}

func TestBlobDelete(t *testing.T) {
	ctx := context.Background()
	cl := blobTestClient(t)
	base := KeyFromFloat(0.33)

	data := blobData(200 << 10)
	m, err := cl.PutBlob(ctx, base, bytes.NewReader(data), WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteBlob(ctx, base); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetBlob(ctx, base); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete = %v, want ErrNotFound", err)
	}
	for i := 0; i < m.Chunks; i++ {
		if _, err := cl.Get(ctx, chunkKey(base, i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("chunk %d survived DeleteBlob: %v", i, err)
		}
	}
}

func TestBlobCorruptChunk(t *testing.T) {
	ctx := context.Background()
	cl := blobTestClient(t)
	base := KeyFromFloat(0.48)

	data := blobData(5 * 32 << 10)
	if _, err := cl.PutBlob(ctx, base, bytes.NewReader(data), WithChunkSize(32<<10)); err != nil {
		t.Fatal(err)
	}
	// Flip chunk 2 behind the manifest's back: the stream must fail with a
	// checksum error rather than hand back corrupt bytes.
	bad := make([]byte, 32<<10)
	if _, err := cl.Put(ctx, chunkKey(base, 2), bad); err != nil {
		t.Fatal(err)
	}
	br, err := cl.GetBlob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	_, err = io.ReadAll(br)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt chunk read err = %v, want a checksum failure", err)
	}
}

func TestBlobBadChunkSize(t *testing.T) {
	ctx := context.Background()
	cl := blobTestClient(t)
	if _, err := cl.PutBlob(ctx, KeyFromFloat(0.5), strings.NewReader("x"), WithChunkSize(0)); err == nil {
		t.Fatal("chunk size 0 accepted")
	}
}

func TestBlobReaderCloseMidStream(t *testing.T) {
	ctx := context.Background()
	cl := blobTestClient(t)
	base := KeyFromFloat(0.71)

	data := blobData(1 << 20)
	if _, err := cl.PutBlob(ctx, base, bytes.NewReader(data), WithChunkSize(16<<10)); err != nil {
		t.Fatal(err)
	}
	br, err := cl.GetBlob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10<<10)
	if _, err := io.ReadFull(br, buf); err != nil {
		t.Fatal(err)
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Read(buf); err == nil {
		t.Fatal("read after Close succeeded")
	}
	// The producer goroutine must wind down promptly after Close.
	time.Sleep(10 * time.Millisecond)
}

// TestBlobLiveCluster writes a blob through one node and streams it back
// through another.
func TestBlobLiveCluster(t *testing.T) {
	ctx := context.Background()
	c, err := StartCluster(ctx, 8, WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Node(0)
	base := KeyFromFloat(0.4)

	data := blobData(3 << 20)
	m, err := cl.PutBlob(ctx, base, bytes.NewReader(data), WithChunkSize(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	if m.Chunks != 12 {
		t.Fatalf("manifest chunks = %d, want 12", m.Chunks)
	}
	br, err := c.Node(5).GetBlob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	got, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("live blob mismatch: %d bytes back, want %d", len(got), len(data))
	}
}
