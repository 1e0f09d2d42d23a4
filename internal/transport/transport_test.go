package transport

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// echoHandler answers every request with its key echoed back.
func echoHandler(req *Request) *Response {
	return &Response{OK: true, Peer: PeerRef{Key: req.Key}}
}

func TestFabricCall(t *testing.T) {
	f := NewFabric()
	a, b := f.Endpoint(), f.Endpoint()
	b.Serve(echoHandler)
	resp, err := a.CallCtx(context.Background(), b.Addr(), &Request{Op: OpPing, Key: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Peer.Key != 42 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestFabricUnknownAddr(t *testing.T) {
	f := NewFabric()
	a := f.Endpoint()
	if _, err := a.CallCtx(context.Background(), "nope", &Request{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestFabricClosedEndpoint(t *testing.T) {
	f := NewFabric()
	a, b := f.Endpoint(), f.Endpoint()
	b.Serve(echoHandler)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CallCtx(context.Background(), b.Addr(), &Request{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to closed endpoint: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CallCtx(context.Background(), a.Addr(), &Request{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call from closed endpoint: %v", err)
	}
}

func TestFabricUniqueAddrs(t *testing.T) {
	f := NewFabric()
	seen := map[Addr]bool{}
	for i := 0; i < 100; i++ {
		addr := f.Endpoint().Addr()
		if seen[addr] {
			t.Fatalf("duplicate address %s", addr)
		}
		seen[addr] = true
	}
}

func TestFabricConcurrentCalls(t *testing.T) {
	f := NewFabric()
	server := f.Endpoint()
	var mu sync.Mutex
	count := 0
	server.Serve(func(req *Request) *Response {
		mu.Lock()
		count++
		mu.Unlock()
		return &Response{OK: true}
	})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := f.Endpoint()
			for j := 0; j < 50; j++ {
				if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if count != 1000 {
		t.Errorf("handled %d calls, want 1000", count)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Serve(func(req *Request) *Response {
		return &Response{OK: true, Value: append([]byte("echo:"), req.Value...), Peer: PeerRef{Key: req.Key}}
	})
	client, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{
		Op: OpPut, Key: keyspace.MaxKey, Value: []byte("hello"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || string(resp.Value) != "echo:hello" {
		t.Errorf("resp = %+v", resp)
	}
	if resp.Peer.Key != keyspace.MaxKey {
		t.Error("uint64 key did not survive the round trip")
	}
}

func TestTCPDeadPeer(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server.Serve(echoHandler)
	addr := server.Addr()
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	client, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CallCtx(context.Background(), addr, &Request{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dead peer call: %v", err)
	}
}

func TestTCPConcurrent(t *testing.T) {
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
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: keyspace.Key(k)})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Peer.Key != keyspace.Key(k) {
					t.Errorf("cross-talk: got %v want %d", resp.Peer.Key, k)
					return
				}
			}
		}(uint64(i) << 60)
	}
	wg.Wait()
}
