package transport

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	crand "crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"math/big"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

var echoV2Handler = Handler(func(req *Request) *Response {
	return &Response{OK: true, Peer: PeerRef{Key: req.Key}, Value: req.Value}
})

// listen is a test helper for a served endpoint.
func listen(t testing.TB, h Handler, opts ...TCPOption) *TCPEndpoint {
	t.Helper()
	e, err := ListenTCP("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	e.Serve(h)
	return e
}

// open dials server, writes the opening bytes and reads one byte back: the
// server's answer to a hello, or an error if it hung up instead.
func open(t *testing.T, server *TCPEndpoint, opening []byte) (net.Conn, byte, error) {
	t.Helper()
	conn, err := net.Dial("tcp", string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write(opening); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var reply [1]byte
	_, err = conn.Read(reply[:])
	return conn, reply[0], err
}

// hello is the 5-byte hello offering version.
func hello(version byte) []byte { return append(codecMagic[:], version) }

// TestCodecNegotiation checks the hello: a binary client settles on the
// binary codec and round-trips requests, and a client offering a newer
// version than the server speaks is answered with the binary codec.
func TestCodecNegotiation(t *testing.T) {
	server := listen(t, echoV2Handler)
	t.Run("binary-binary", func(t *testing.T) {
		client := listen(t, nil)
		resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: 42, Value: []byte("hello")})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Peer.Key != 42 || string(resp.Value) != "hello" {
			t.Fatalf("echo mismatch: %+v", resp)
		}
	})
	t.Run("newer-client", func(t *testing.T) {
		if _, got, err := open(t, server, hello(codecBinary+1)); err != nil || got != codecBinary {
			t.Fatalf("hello offering %d answered %d, %v; want %d", codecBinary+1, got, err, codecBinary)
		}
	})
}

// TestHandshakeRequired proves the server refuses a connection that does
// not open with the hello — a raw frame, or the wrong magic — or whose
// hello offers a version below the binary codec: no byte comes back and
// the connection is closed. None of them disturbs a proper client of the
// same server.
func TestHandshakeRequired(t *testing.T) {
	server := listen(t, echoV2Handler)
	client := listen(t, nil)
	f := acquireFrame()
	defer releaseFrame(f)
	if err := f.encode(1, &Request{Op: OpPing, Key: 7}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		opening []byte
	}{
		{"raw frame", f.bytes()},
		{"version 1", hello(1)},
		{"wrong magic", []byte{'X', 'O', 'S', 'C', codecBinary}},
	} {
		conn, got, err := open(t, server, tc.opening)
		if err == nil {
			t.Fatalf("%s: server answered %d", tc.name, got)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: server kept the connection open", tc.name)
		}
		_ = conn.Close()
		resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: 7})
		if err != nil || !resp.OK || resp.Peer.Key != 7 {
			t.Fatalf("proper call after a %s: %+v, %v", tc.name, resp, err)
		}
	}
}

// selfSignedTLS builds a self-signed cert for 127.0.0.1 and returns a
// tls.Config usable symmetrically: it is the fleet's identity and its
// trust root at once.
func selfSignedTLS(t testing.TB) *tls.Config {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "oscar-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(crand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(leaf)
	return &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}},
		RootCAs:      roots,
	}
}

// TestTLSTransport runs the full call path over TLS, with certificate
// verification on (shared self-signed cert as the trust root).
func TestTLSTransport(t *testing.T) {
	cfg := selfSignedTLS(t)
	for _, tc := range []struct {
		name string
		opts []TCPOption
	}{
		{"binary", []TCPOption{WithTLS(cfg)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server := listen(t, echoV2Handler, tc.opts...)
			client := listen(t, nil, tc.opts...)
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: keyspace.Key(i)})
					if err != nil {
						t.Error(err)
						return
					}
					if !resp.OK || resp.Peer.Key != keyspace.Key(i) {
						t.Errorf("echo mismatch: %+v", resp)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

// TestTLSRejectsPlaintextPeer ensures a TLS endpoint does not silently
// accept a plaintext caller.
func TestTLSRejectsPlaintextPeer(t *testing.T) {
	server := listen(t, echoV2Handler, WithTLS(selfSignedTLS(t)))
	plain := listen(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := plain.CallCtx(ctx, server.Addr(), &Request{Op: OpPing}); err == nil {
		t.Fatal("plaintext call against TLS endpoint succeeded")
	}
}

// TestOverloadShedding is the overload conformance scenario: saturate a
// node far past its in-flight cap and assert (a) the excess fails with
// the typed ErrOverloaded instead of queueing, (b) the server's goroutine
// count stays bounded by the cap — deterministic shedding, not OOM — and
// (c) the node serves normally again once the flood passes.
func TestOverloadShedding(t *testing.T) {
	const cap = 8
	release := make(chan struct{})
	var serving sync.WaitGroup
	slow := Handler(func(req *Request) *Response {
		if req.Op == OpPing {
			return &Response{OK: true}
		}
		<-release
		return &Response{OK: true, Peer: PeerRef{Key: req.Key}}
	})
	server := listen(t, slow, WithMaxInflight(cap))
	// The client's own in-flight cap must be wider than the server's, or
	// the flood would be throttled before it ever reaches the peer.
	client := listen(t, nil, WithMaxInflight(4*cap))

	before := runtime.NumGoroutine()

	const flood = 4 * cap
	errs := make(chan error, flood)
	for i := 0; i < flood; i++ {
		serving.Add(1)
		go func(i int) {
			defer serving.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := client.CallCtx(ctx, server.Addr(), &Request{Op: OpGet, Key: keyspace.Key(i)})
			errs <- err
		}(i)
	}

	// Wait until the shed responses have come back: everything beyond the
	// handler cap fails fast while the cap's worth of calls still hangs.
	shed := 0
	for shed < flood-cap {
		err := <-errs
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("flood error = %v, want ErrOverloaded", err)
		}
		shed++
	}

	// The server must not have grown a goroutine per queued request: its
	// handler goroutines are capped, the shed requests spawned none.
	if grew := runtime.NumGoroutine() - before; grew > flood+cap {
		t.Fatalf("goroutines grew by %d during flood (cap %d, flood %d)", grew, cap, flood)
	}

	close(release) // let the admitted calls finish
	serving.Wait()
	ok := 0
	for i := 0; i < cap; i++ {
		if err := <-errs; err == nil {
			ok++
		}
	}
	if ok != cap {
		t.Fatalf("admitted calls succeeded = %d, want %d", ok, cap)
	}

	// After the flood: the node serves again immediately.
	resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing})
	if err != nil || !resp.OK {
		t.Fatalf("post-flood call = %+v, %v", resp, err)
	}
}

// TestClientInflightCapOverload drives the client-side half of
// backpressure: a saturated per-connection in-flight cap fails the excess
// call with ErrOverloaded once its context expires, without breaking the
// connection.
func TestClientInflightCapOverload(t *testing.T) {
	release := make(chan struct{})
	slow := Handler(func(req *Request) *Response {
		if req.Op == OpPing {
			return &Response{OK: true}
		}
		<-release
		return &Response{OK: true}
	})
	server := listen(t, slow)
	client := listen(t, nil, WithMaxInflight(2), WithPoolSize(1))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpGet})
		}()
	}
	// Let both slow calls occupy the cap.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if clientConnCount(client, server.Addr()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never dialed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := client.CallCtx(ctx, server.Addr(), &Request{Op: OpGet})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated client call = %v, want ErrOverloaded", err)
	}

	close(release)
	wg.Wait()
	resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing})
	if err != nil || !resp.OK {
		t.Fatalf("post-saturation call = %+v, %v", resp, err)
	}
}
