package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// serverConnCount reports how many live server-side connections an
// endpoint holds (white-box: connection reuse is the point of the pool).
func serverConnCount(e *TCPEndpoint) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.conns)
}

// clientConnCount reports how many pooled client connections an endpoint
// holds toward addr.
func clientConnCount(e *TCPEndpoint, addr Addr) int {
	e.pool.mu.Lock()
	pc := e.pool.peers[addr]
	e.pool.mu.Unlock()
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := 0
	for _, c := range pc.conns {
		if !c.isBroken() {
			n++
		}
	}
	return n
}

// TestMuxConcurrentCallsShareConnection drives many in-flight calls
// through a pool capped at one connection and checks that every response
// reaches its own caller (no cross-talk) and that the server really saw a
// single multiplexed connection.
func TestMuxConcurrentCallsShareConnection(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Serve(echoHandler)

	client, err := ListenTCP("127.0.0.1:0", WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const workers, callsPer = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < callsPer; j++ {
				key := keyspace.Key(uint64(w)<<32 | uint64(j))
				resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: key})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Peer.Key != key {
					t.Errorf("cross-talk: got %v want %v", resp.Peer.Key, key)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if n := serverConnCount(server); n != 1 {
		t.Errorf("server saw %d connections, want 1 (pool size 1)", n)
	}
	if n := clientConnCount(client, server.Addr()); n != 1 {
		t.Errorf("client pooled %d connections, want 1", n)
	}
}

// TestMuxPoolSpreadsLoad checks that under concurrency the pool opens at
// most its per-peer cap, and that serial traffic reuses one connection.
func TestMuxPoolSpreadsLoad(t *testing.T) {
	release := make(chan struct{})
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Serve(func(req *Request) *Response {
		if req.Op == OpGet {
			<-release // hold calls in flight so the pool sees busy conns
		}
		return &Response{OK: true}
	})

	client, err := ListenTCP("127.0.0.1:0", WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpGet}); err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait until the in-flight calls have forced the pool to its cap.
	deadline := time.Now().Add(2 * time.Second)
	for clientConnCount(client, server.Addr()) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := clientConnCount(client, server.Addr()); n != 2 {
		t.Errorf("pool holds %d connections, want exactly the cap 2", n)
	}
}

// TestMuxReconnectAfterRestart kills the server, verifies calls fail, then
// restarts it on the same address and checks the pooled (now stale)
// connection is evicted and redialed transparently.
func TestMuxReconnectAfterRestart(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server.Serve(echoHandler)
	addr := server.Addr()

	client, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.CallCtx(context.Background(), addr, &Request{Op: OpPing, Key: 1}); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CallCtx(context.Background(), addr, &Request{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to dead server: err = %v, want ErrUnreachable", err)
	}

	// Restart on the same port; the next call must succeed via a fresh dial.
	server2, err := ListenTCP(string(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	server2.Serve(echoHandler)

	resp, err := client.CallCtx(context.Background(), addr, &Request{Op: OpPing, Key: 7})
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if resp.Peer.Key != 7 {
		t.Errorf("resp = %+v", resp)
	}
}

// TestMuxCallTimeoutDoesNotPoisonPool holds one request hostage past its
// deadline and checks that (a) the caller gets a deadline error, (b) the
// shared connection survives, and (c) the late response is discarded
// rather than delivered to the wrong caller.
func TestMuxCallTimeoutDoesNotPoisonPool(t *testing.T) {
	release := make(chan struct{})
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Serve(func(req *Request) *Response {
		if req.Op == OpGet {
			<-release
			return &Response{OK: true, Err: "late"}
		}
		return &Response{OK: true, Peer: PeerRef{Key: req.Key}}
	})

	client, err := ListenTCP("127.0.0.1:0", WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = client.CallCtx(ctx, server.Addr(), &Request{Op: OpGet})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked call: err = %v, want DeadlineExceeded", err)
	}

	// Let the late response arrive, then prove the same pooled connection
	// still serves fresh calls and does not mis-deliver the stale frame.
	close(release)
	for i := 0; i < 20; i++ {
		key := keyspace.Key(100 + i)
		resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: key})
		if err != nil {
			t.Fatalf("call %d after timeout: %v", i, err)
		}
		if !resp.OK || resp.Err == "late" || resp.Peer.Key != key {
			t.Fatalf("call %d got stale/mismatched response %+v", i, resp)
		}
	}
	if n := clientConnCount(client, server.Addr()); n != 1 {
		t.Errorf("pool holds %d connections after timeout, want the original 1", n)
	}
}

// TestMuxGarbageFrames feeds the server protocol violations after a proper
// hello — an oversized length header and an undecodable payload — and
// checks it drops those connections while continuing to serve well-formed
// traffic.
func TestMuxGarbageFrames(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Serve(echoHandler)

	send := func(raw []byte) {
		t.Helper()
		conn, version, err := open(t, server, hello(codecBinary))
		if err != nil || version != codecBinary {
			t.Fatalf("hello: %d, %v", version, err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		// The server must hang up rather than answer.
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if n, err := conn.Read(buf); err == nil {
			t.Errorf("server answered %d bytes to a garbage frame", n)
		}
	}

	// Oversized declared length.
	huge := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(huge[0:4], maxFrame+1)
	send(huge)

	// Well-formed header, garbage payload.
	garbage := make([]byte, frameHeaderSize+4)
	binary.BigEndian.PutUint32(garbage[0:4], 4)
	binary.BigEndian.PutUint64(garbage[4:12], 9)
	copy(garbage[frameHeaderSize:], "\x00\x01\x02\x03")
	send(garbage)

	// The endpoint still serves honest clients.
	client, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: 5})
	if err != nil || !resp.OK || resp.Peer.Key != 5 {
		t.Fatalf("honest call after garbage: %+v, %v", resp, err)
	}
}

// TestMuxOversizedRequestRejected checks a request whose payload exceeds
// the frame limit fails client-side instead of hitting the wire.
func TestMuxOversizedRequestRejected(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Serve(echoHandler)

	client, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPut, Value: make([]byte, maxFrame)}); err == nil {
		t.Fatal("oversized request succeeded")
	}
	// The transport recovers: a normal call still goes through.
	if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("call after oversized request: %v", err)
	}
}

// TestMuxIdleReap checks the reaper closes idle pooled connections and the
// next call transparently redials.
func TestMuxIdleReap(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Serve(echoHandler)

	client, err := ListenTCP("127.0.0.1:0", WithIdleTimeout(80*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for clientConnCount(client, server.Addr()) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := clientConnCount(client, server.Addr()); n != 0 {
		t.Fatalf("reaper left %d idle connections", n)
	}
	if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("call after reap: %v", err)
	}
}
