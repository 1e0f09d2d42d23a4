package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// The contracts of the TCP call path: resident handler workers on the
// server side, the caller-side flush on both.

// parkedWorkers reports how many of an endpoint's workers are parked.
func parkedWorkers(e *TCPEndpoint) int { return e.workers.Stats().Parked }

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// deep recurses through about n KiB of stack.
//
//go:noinline
func deep(n int) byte {
	var pad [1024]byte
	pad[n] = byte(n)
	if n == 0 {
		return pad[0]
	}
	return deep(n-1) + pad[n]
}

// TestWorkersStayResident: sequential traffic is served by the worker that
// parked last — a second one at most, when a request beats the first to
// the park — however deep the handler's stack goes, and the process grows
// no goroutine per request.
func TestWorkersStayResident(t *testing.T) {
	server := listen(t, func(req *Request) *Response {
		return &Response{OK: true, Acks: int(deep(8)), Peer: PeerRef{Key: req.Key}}
	})
	client := listen(t, nil)
	call := func(i int) {
		t.Helper()
		resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing, Key: keyspace.Key(i)})
		if err != nil || resp.Peer.Key != keyspace.Key(i) {
			t.Fatalf("call %d = %+v, %v", i, resp, err)
		}
	}
	call(0)
	before := runtime.NumGoroutine()
	for i := 1; i <= 1000; i++ {
		call(i)
	}
	if started := server.workers.Stats().Started; started > 2 {
		t.Errorf("1001 sequential calls started %d workers, want at most 2", started)
	}
	if grew := runtime.NumGoroutine() - before; grew > 1 {
		t.Errorf("goroutines grew by %d over 1000 sequential calls", grew)
	}
}

// TestWorkerSlowHandlerDoesNotBlockConnection: a handler stuck on one
// request delays no other request of the same connection.
func TestWorkerSlowHandlerDoesNotBlockConnection(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	server := listen(t, func(req *Request) *Response {
		if req.Op == OpGet {
			close(entered)
			<-release
		}
		return &Response{OK: true, Peer: PeerRef{Key: req.Key}}
	})
	client := listen(t, nil)

	slow := make(chan error, 1)
	go func() {
		_, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpGet})
		slow <- err
	}()
	<-entered
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := client.CallCtx(ctx, server.Addr(), &Request{Op: OpPing, Key: keyspace.Key(i)})
		cancel()
		if err != nil || resp.Peer.Key != keyspace.Key(i) {
			t.Fatalf("call %d behind a blocked handler = %+v, %v", i, resp, err)
		}
	}
	if n := serverConnCount(server); n != 1 {
		t.Fatalf("server saw %d connections, want the one shared", n)
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// burst holds n concurrent requests in server's handler at once — forcing
// n workers — and returns when all are answered. gate is the handler side:
// it must be installed as (part of) the server's handler.
type burst struct {
	n       int32
	arrived atomic.Int32
	full    chan struct{}
}

func newBurst(n int) *burst { return &burst{n: int32(n), full: make(chan struct{})} }

func (b *burst) gate(req *Request) *Response {
	if b.arrived.Add(1) == b.n {
		close(b.full)
	}
	<-b.full
	return &Response{OK: true}
}

func (b *burst) fire(t *testing.T, client, server *TCPEndpoint) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < int(b.n); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpGet}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestWorkersRetire: the workers a burst needed park when it is over and
// are gone a reaper tick later; Close does not wait for a tick.
func TestWorkersRetire(t *testing.T) {
	const size = 256
	t.Run("reaper", func(t *testing.T) {
		b := newBurst(size)
		server := listen(t, b.gate, withIdleTimeout(200*time.Millisecond)) // reaper tick: 100ms
		client := listen(t, nil)
		b.fire(t, client, server)
		if started := server.workers.Stats().Started; started != size {
			t.Fatalf("a burst of %d concurrent requests started %d workers", size, started)
		}
		waitFor(t, "the parked workers to retire", func() bool { return parkedWorkers(server) == 0 })
		// The endpoint still serves: the next request starts a worker.
		if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("close", func(t *testing.T) {
		b := newBurst(size)
		server := listen(t, b.gate)
		client := listen(t, nil)
		before := runtime.NumGoroutine()
		b.fire(t, client, server)
		waitFor(t, "the workers to park", func() bool { return parkedWorkers(server) == size })
		closed := make(chan error, 1)
		go func() { closed <- server.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung with workers parked")
		}
		// Close waited for the workers; what may still be winding down is
		// the client's read loops on the connections Close cut.
		waitFor(t, "the burst's goroutines to be gone", func() bool { return runtime.NumGoroutine() <= before })
	})
}

// wireConn counts what reaches the socket and can be told to fail writes.
type wireConn struct {
	net.Conn
	writes, closes atomic.Int64
	failing        atomic.Bool
}

var errInjectedWrite = errors.New("injected write failure")

func (c *wireConn) Write(b []byte) (int, error) {
	if c.failing.Load() {
		return 0, errInjectedWrite
	}
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (c *wireConn) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

// dialMux dials server as the pool would and returns the client side of
// the connection over a wireConn.
func dialMux(t *testing.T, server *TCPEndpoint) (*muxConn, *wireConn) {
	t.Helper()
	p := newPool(time.Second, time.Second, defaultMaxInflight, nil)
	conn, err := p.dial(context.Background(), server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := &wireConn{Conn: conn}
	mc := newMuxConn(wc, time.Second, defaultMaxInflight)
	t.Cleanup(mc.close)
	return mc, wc
}

// TestFlushWritesPerCall: a lone caller's frame leaves in its own Write,
// one per call; concurrent callers share Writes.
func TestFlushWritesPerCall(t *testing.T) {
	server := listen(t, echoHandler)
	mc, wc := dialMux(t, server)

	const sequential = 100
	for i := 0; i < sequential; i++ {
		if _, err := mc.call(context.Background(), &Request{Op: OpPing, Key: keyspace.Key(i)}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := wc.writes.Load(); n != sequential {
		t.Errorf("%d sequential calls reached the socket in %d writes, want one each", sequential, n)
	}

	const callers = 64
	wc.writes.Store(0)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := mc.call(context.Background(), &Request{Op: OpPing, Key: keyspace.Key(i)}, time.Second)
			if err != nil || resp.Peer.Key != keyspace.Key(i) {
				t.Errorf("caller %d = %+v, %v", i, resp, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if n := wc.writes.Load(); n >= callers {
		t.Errorf("%d concurrent callers reached the socket in %d writes, want fewer", callers, n)
	}
}

// TestCancelledCallSendsNothing: a context that is done before the frame
// would be queued puts nothing on the wire and leaves the connection
// usable.
func TestCancelledCallSendsNothing(t *testing.T) {
	server := listen(t, echoHandler)
	mc, wc := dialMux(t, server)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mc.call(ctx, &Request{Op: OpPing}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %v, want context.Canceled", err)
	}
	if n := wc.writes.Load(); n != 0 {
		t.Fatalf("cancelled call wrote %d times", n)
	}
	if n := mc.inflight(); n != 0 {
		t.Fatalf("cancelled call left %d response slots", n)
	}
	resp, err := mc.call(context.Background(), &Request{Op: OpPing, Key: 3}, time.Second)
	if err != nil || resp.Peer.Key != 3 {
		t.Fatalf("call after a cancelled one = %+v, %v", resp, err)
	}
}

// TestCancelledDialIsContextError: a call whose context is already
// cancelled, to a live peer with no pooled connection yet, fails at once
// in its dial, sends nothing, and matches both context.Canceled and
// ErrUnreachable — a caller can tell its own cancellation from a dead
// peer. The next call with a live context dials and succeeds.
func TestCancelledDialIsContextError(t *testing.T) {
	var handled atomic.Int32
	server := listen(t, func(req *Request) *Response {
		handled.Add(1)
		return &Response{OK: true}
	})
	client := listen(t, echoHandler)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := client.CallCtx(ctx, server.Addr(), &Request{Op: OpPing})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call with a cancelled context = %v, want context.Canceled and ErrUnreachable", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled call took %v", d)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("cancelled call reached the handler %d times", n)
	}
	if _, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("call after a cancelled one = %v", err)
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}

// TestWriteFailureBreaksConnectionOnce: the first failed Write fails every
// call in flight as possibly-sent (never retried) and closes the
// connection once.
func TestWriteFailureBreaksConnectionOnce(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var held sync.WaitGroup
	const inflight = 8
	held.Add(inflight)
	server := listen(t, func(req *Request) *Response {
		held.Done()
		<-release
		return &Response{OK: true}
	})
	mc, wc := dialMux(t, server)

	errs := make(chan error, inflight+1)
	call := func() {
		_, err := mc.call(context.Background(), &Request{Op: OpGet}, 5*time.Second)
		errs <- err
	}
	for i := 0; i < inflight; i++ {
		go call()
	}
	held.Wait() // all written, all waiting for an answer
	wc.failing.Store(true)
	go call()
	for i := 0; i < inflight+1; i++ {
		var broken errConnBroken
		if err := <-errs; !errors.As(err, &broken) || !broken.sent || !errors.Is(err, errInjectedWrite) {
			t.Errorf("call %d = %v, want a broken connection with sent=true caused by the write", i, err)
		}
	}
	if !mc.isBroken() {
		t.Error("connection not broken")
	}
	if n := wc.closes.Load(); n != 1 {
		t.Errorf("connection closed %d times, want once", n)
	}
	// A call after the break was never sent: the pool may retry it.
	_, err := mc.call(context.Background(), &Request{Op: OpGet}, time.Second)
	var broken errConnBroken
	if !errors.As(err, &broken) || broken.sent {
		t.Errorf("call on the broken connection = %v, want broken with sent=false", err)
	}
}

// TestLargeFrameNotPinned: a frame over maxPooledBuf goes out from its own
// buffer; the connection's pending buffers stay small afterwards.
func TestLargeFrameNotPinned(t *testing.T) {
	server := listen(t, echoV2Handler)
	mc, _ := dialMux(t, server)
	big := make([]byte, 1<<20)
	big[len(big)-1] = 7
	resp, err := mc.call(context.Background(), &Request{Op: OpPut, Value: big}, 5*time.Second)
	if err != nil || len(resp.Value) != len(big) || resp.Value[len(big)-1] != 7 {
		t.Fatalf("1 MiB call: %d bytes back, %v", len(resp.Value), err)
	}
	if _, err := mc.call(context.Background(), &Request{Op: OpPing}, time.Second); err != nil {
		t.Fatal(err)
	}
	mc.wr.mu.Lock()
	defer mc.wr.mu.Unlock()
	if p, s := cap(mc.wr.pending), cap(mc.wr.spare); p > maxPooledBuf || s > maxPooledBuf {
		t.Errorf("pending buffers hold %d and %d bytes after a 1 MiB frame, cap is %d", p, s, maxPooledBuf)
	}
	if len(mc.wr.large) != 0 {
		t.Errorf("%d large frames still referenced", len(mc.wr.large))
	}
}

// TestLargeFrameReadNotPinned is TestLargeFrameNotPinned's read-side twin:
// once a 1 MiB frame has been read on each side of a connection and its
// message dropped, neither the connection nor a pool keeps its buffer.
// The heap is read after one collection, which a pooled buffer survives.
// A 1 MiB value makes a frame just over maxLargeBuf, the write pool's cap,
// so the write side pools none of these frames either.
func TestLargeFrameReadNotPinned(t *testing.T) {
	server := listen(t, echoV2Handler)
	mc, _ := dialMux(t, server)
	call := func(req *Request) {
		t.Helper()
		resp, err := mc.call(context.Background(), req, 5*time.Second)
		if err != nil || len(resp.Value) != len(req.Value) {
			t.Fatalf("%d-byte call: %d bytes back, %v", len(req.Value), len(resp.Value), err)
		}
	}
	call(&Request{Op: OpPing})
	liveHeap := func(collections int) int64 {
		var ms runtime.MemStats
		for i := 0; i < collections; i++ {
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap(2) // the second collection empties the pools
	for i := 0; i < 3; i++ {
		call(&Request{Op: OpPut, Value: make([]byte, 1<<20)})
		call(&Request{Op: OpPing})
	}
	if grown := liveHeap(1) - before; grown > 1<<19 {
		t.Errorf("the live heap grew by %d bytes after 1 MiB frames were read and dropped", grown)
	}
}

// drainedConn returns the client end of a loopback TCP connection whose
// server end reads and drops everything, without allocating.
func drainedConn(t *testing.T) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		_ = conn.Close()
		_ = peer.Close()
		<-drained
	})
	return conn
}

// heapAfterGC returns the live heap after the given number of collections.
func heapAfterGC(collections int) int64 {
	var ms runtime.MemStats
	for i := 0; i < collections; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLargeFramePoolNoAllocs: once warm, answering the scan-insert
// workload's 4096 × 100 B page (≈ 450 KB, over maxPooledBuf) over a live
// connection allocates almost nothing on the write side: the frame moves
// to a write-pool buffer, and the writer hands that back after its Write.
func TestLargeFramePoolNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its buffers under the race detector")
	}
	w := newConnWriter(drainedConn(t), time.Second, defaultMaxInflight, func(err error) { t.Error(err) })
	defer w.close()
	page := scanPage(4096)
	for i := 0; i < 8; i++ {
		sendFrame(t, w, page)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 50
	for i := 0; i < calls; i++ {
		sendFrame(t, w, page)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 64<<10 {
		t.Errorf("a %d-byte page frame allocates %d bytes per call on the write side, want under %d", len(encodeFrame(t, 1, page)), perCall, 64<<10)
	}
}

// TestLargeFramePoolConcurrent: callers sending large frames of distinct
// contents at once over one connection, on TCP and on TLS, each get their
// own value back. Both the requests and the echoed answers are encoded
// into write-pool buffers, so a buffer handed back before its Write has
// returned would carry another caller's bytes.
func TestLargeFramePoolConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []TCPOption
	}{{"tcp", nil}, {"tls", []TCPOption{WithTLS(selfSignedTLS(t))}}} {
		t.Run(tc.name, func(t *testing.T) {
			server := listen(t, echoV2Handler, tc.opts...)
			client := listen(t, nil, tc.opts...)
			sizes := []int{70 << 10, 130 << 10, 300 << 10, 600 << 10, 1000 << 10}
			const callers, calls = 8, 12
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						value := bytes.Repeat([]byte{byte(c), byte(i), byte(c * i)}, sizes[(c+i)%len(sizes)]/3)
						resp, err := client.CallCtx(context.Background(), server.Addr(), &Request{Op: OpPut, Key: keyspace.Key(c), Value: value})
						if err != nil {
							t.Errorf("caller %d call %d: %v", c, i, err)
							return
						}
						if !bytes.Equal(resp.Value, value) {
							t.Errorf("caller %d call %d: %d bytes back differ from the %d sent", c, i, len(resp.Value), len(value))
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// TestLargeFramePoolReleased: a frame over maxLargeBuf never enters the
// write pool, so one collection takes its buffer back; the pool's own
// buffers, once idle, are gone after two collections.
func TestLargeFramePoolReleased(t *testing.T) {
	server := listen(t, echoV2Handler)
	mc, _ := dialMux(t, server)
	call := func(size int) {
		t.Helper()
		resp, err := mc.call(context.Background(), &Request{Op: OpPut, Value: make([]byte, size)}, 5*time.Second)
		if err != nil || len(resp.Value) != size {
			t.Fatalf("%d-byte call: %d bytes back, %v", size, len(resp.Value), err)
		}
	}
	call(0)
	over := &Request{Op: OpPut, Value: make([]byte, maxLargeBuf+1<<18)}
	f := acquireFrame()
	if err := f.encode(1, over); err != nil {
		t.Fatal(err)
	}
	if f.large != nil || cap(f.own) > maxPooledBuf {
		t.Errorf("a %d-byte frame holds a write-pool buffer %v or an own buffer of %d bytes", len(f.bytes()), f.large != nil, cap(f.own))
	}
	releaseFrame(f)

	before := heapAfterGC(2)
	for i := 0; i < 3; i++ {
		call(len(over.Value))
		call(0)
	}
	if grown := heapAfterGC(1) - before; grown > 256<<10 {
		t.Errorf("the live heap grew by %d bytes after frames over the pool's cap", grown)
	}
	for _, size := range []int{100 << 10, 200 << 10, 500 << 10, 1000 << 10} {
		call(size)
	}
	call(0)
	if grown := heapAfterGC(2) - before; grown > 256<<10 {
		t.Errorf("the live heap grew by %d bytes after pooled frames sat idle through two collections", grown)
	}
}

// TestCancelledQueuedDial: a caller that finds every connection slot to a
// peer taken by another caller's dial waits for it no longer than its own
// context allows, and fails with both ErrUnreachable and its context's
// error — here the other dial hangs on a peer that accepts TCP but never
// answers the hello, for up to the pool's 5 s dial timeout.
func TestCancelledQueuedDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	client := listen(t, nil)
	addr := Addr(ln.Addr().String())

	first := make(chan error, 1)
	go func() {
		_, err := client.CallCtx(context.Background(), addr, &Request{Op: OpPing})
		first <- err
	}()
	var silent net.Conn
	select {
	case silent = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("the first caller's dial never reached the peer")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.CallCtx(ctx, addr, &Request{Op: OpPing})
	if d := time.Since(start); d > time.Second {
		t.Errorf("a call with a 200 ms deadline waited %v for another caller's dial", d)
	}
	if !errors.Is(err, ErrUnreachable) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued call = %v, want ErrUnreachable and context.DeadlineExceeded", err)
	}

	_ = ln.Close()
	_ = silent.Close() // ends the first caller's dial
	if err := <-first; !errors.Is(err, ErrUnreachable) {
		t.Errorf("first call = %v, want ErrUnreachable", err)
	}
}

// TestDecodedValuesOwnTheirBytes: a request the handler keeps from a
// connection's first frame, and the response the caller keeps, stay as
// they were while later frames reuse the read buffers on both sides —
// small frames decoded in place in the connection's read buffer, one
// larger than it read into a buffer of its own. That holds for the values
// and for the strings: the op, From's address and the chain's addresses,
// which later frames overwrite with other ops and addresses of the same
// length at the same offsets.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	var mu sync.Mutex
	var kept *Request
	server := listen(t, func(req *Request) *Response {
		mu.Lock()
		if kept == nil {
			kept = req
		}
		mu.Unlock()
		chain := []PeerRef{{Addr: req.From.Addr + "1", Key: 1}, {Addr: req.From.Addr + "2", Key: 2}}
		return &Response{OK: true, Value: req.Value, Peers: chain}
	})
	mc, _ := dialMux(t, server)
	call := func(op Op, from Addr, value []byte) *Response {
		t.Helper()
		req := &Request{Op: op, Key: 1, Value: value, From: PeerRef{Addr: from, Key: 9}}
		resp, err := mc.call(context.Background(), req, 5*time.Second)
		if err != nil || !bytes.Equal(resp.Value, value) || len(resp.Peers) != 2 {
			t.Fatalf("%d-byte %s: %d bytes and %d peers back, %v", len(value), op, len(resp.Value), len(resp.Peers), err)
		}
		return resp
	}
	first := bytes.Repeat([]byte("a"), 256)
	answer := call(OpPut, "10.0.0.1:7001", first)
	for i, size := range []int{16, 256, 8 << 10, 256, 16} {
		call(OpGet, Addr(fmt.Sprintf("10.0.0.%d:700%d", i+2, i+2)), bytes.Repeat([]byte{byte('b' + i)}, size))
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(kept.Value, first) {
		t.Errorf("the value the handler kept from the first frame changed under later frames")
	}
	if kept.Op != OpPut || kept.From.Addr != "10.0.0.1:7001" {
		t.Errorf("the handler's first request reads op %q from %q after later frames, want put from 10.0.0.1:7001", kept.Op, kept.From.Addr)
	}
	if !bytes.Equal(answer.Value, first) {
		t.Errorf("the value the caller kept from the first response changed under later frames")
	}
	for i, p := range answer.Peers {
		if want := Addr(fmt.Sprintf("10.0.0.1:7001%d", i+1)); p.Addr != want {
			t.Errorf("the first response's peer %d reads %q after later frames, want %q", i, p.Addr, want)
		}
	}
}

// TestDecodedValueExactSize: a value arrives in an allocation of exactly
// its size, nothing of its frame around it, whether it rides a put, a put
// carried by a routing step, or a replica push.
func TestDecodedValueExactSize(t *testing.T) {
	got := make(chan []byte, 1)
	server := listen(t, func(req *Request) *Response {
		v := req.Value
		if len(req.Items) == 1 {
			v = req.Items[0].Value
		}
		got <- v
		return &Response{OK: true}
	})
	client := listen(t, nil)
	value := bytes.Repeat([]byte("v"), 256)
	from := PeerRef{Addr: client.Addr(), Key: 9}
	for _, req := range []*Request{
		{Op: OpPut, Key: 1, Value: value, From: from},
		{Op: OpFindOwner, Key: 1, Value: value, From: from, Carry: OpPut},
		{Op: OpReplicate, Items: []storage.Item{{Key: 1, Value: value}}, From: from},
	} {
		if _, err := client.CallCtx(context.Background(), server.Addr(), req); err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if v := <-got; !bytes.Equal(v, value) || cap(v) != len(v) {
			t.Errorf("%s: the handler got %d bytes in a buffer of %d, want %d in %d", req.Op, len(v), cap(v), len(value), len(value))
		}
	}
}

// stuckConn is a peer that stopped reading: Write blocks until Close.
type stuckConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *stuckConn) Write(b []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}
func (c *stuckConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *stuckConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriterBoundsPendingFrames: against a peer that stops reading, the
// frames waiting behind the stuck write are capped at the writer's limit;
// the sender past it waits no longer than its context and queues nothing.
func TestWriterBoundsPendingFrames(t *testing.T) {
	const limit = 4
	conn := &stuckConn{closed: make(chan struct{})}
	failed := make(chan error, 1)
	w := newConnWriter(conn, time.Second, limit, func(err error) { failed <- err })
	frame := func() *wireFrame {
		f := acquireFrame()
		if err := f.encode(1, &Response{OK: true}); err != nil {
			t.Fatal(err)
		}
		return f
	}
	flusher := make(chan error, 1)
	go func() { flusher <- w.send(context.Background(), frame(), false) }()
	waitFor(t, "the flusher to take its frame", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.flushing && w.queued == 0
	})
	for i := 0; i < limit; i++ {
		if err := w.send(context.Background(), frame(), false); err != nil {
			t.Fatalf("send %d behind the stuck write: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := w.send(ctx, frame(), false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send past the limit = %v, want its context's deadline", err)
	}
	w.mu.Lock()
	queued := w.queued
	w.mu.Unlock()
	if queued != limit {
		t.Fatalf("%d frames pending, want the limit %d", queued, limit)
	}

	// A sender waiting for room is released when the connection dies.
	waiter := make(chan error, 1)
	go func() { waiter <- w.send(context.Background(), frame(), false) }()
	_ = conn.Close()
	if err := <-waiter; err != errWriterClosed {
		t.Errorf("waiting sender after the connection died = %v", err)
	}
	if err := <-flusher; err != nil {
		t.Errorf("flusher's send = %v; its write error goes to onErr", err)
	}
	if err := <-failed; !errors.Is(err, net.ErrClosed) {
		t.Errorf("onErr got %v", err)
	}
}
