package transport

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/oscar-overlay/oscar/internal/resident"
)

// Transport settings. Every endpoint runs at these, over one pooled
// connection per peer (see pool); tests shrink them through the unexported
// tcpOptions.
const (
	// defaultCallTimeout bounds one RPC round trip when the caller's
	// context carries no deadline; a peer that cannot answer within it is
	// treated as dead (the probe semantics routing relies on).
	defaultCallTimeout = 5 * time.Second
	// defaultIdleTimeout is how long a pooled connection may sit without
	// in-flight calls before the reaper closes it. Server-side connections
	// get 4x this before an idle read deadline fires, so the client side
	// always disconnects first.
	defaultIdleTimeout = 60 * time.Second
	// defaultMaxInflight caps, per client connection (so per peer), the
	// calls awaiting a response, and, per endpoint, the requests being handled concurrently.
	// Both sides of the backpressure contract: a client saturating its cap
	// fails fast with ErrOverloaded, a server past its cap sheds the
	// excess deterministically instead of growing a goroutine per queued
	// request.
	defaultMaxInflight = 256
)

// Every connection opens with a 5-byte hello: these four magic bytes and
// the codec version the client offers. The server answers with the one
// version byte both will speak, and refuses — closes without a word — a
// connection that opens with anything else or offers less than
// codecBinary.
var codecMagic = [4]byte{0xF7, 'O', 'S', 'C'}

// overloadedWireErr is the Response.Err marker of a shed request. It is
// matched exactly by the client and surfaced as ErrOverloaded, so handler
// error strings can never be mistaken for transport-level shedding.
const overloadedWireErr = "transport: overloaded"

// TCPOption customises a TCP endpoint.
type TCPOption func(*tcpOptions)

type tcpOptions struct {
	callTimeout time.Duration
	idleTimeout time.Duration
	maxInflight int
	tlsConf     *tls.Config
}

// WithTLS wraps every connection — inbound and outbound — in TLS using
// cfg. The listener side needs cfg.Certificates; the dial side needs the
// peers' roots in cfg.RootCAs (or InsecureSkipVerify) and derives
// ServerName from the dialed host:port when cfg leaves it empty, so one
// shared config serves a whole symmetric fleet. nil leaves the endpoint
// on plain TCP.
func WithTLS(cfg *tls.Config) TCPOption {
	return func(o *tcpOptions) { o.tlsConf = cfg }
}

// TCPEndpoint is a Transport over real sockets: one persistent connection
// per peer carrying length-prefixed frames tagged with request ids, so
// many in-flight Calls multiplex over one connection in each direction.
// Each connection opens with a hello that confirms the binary codec. The
// server side reads frames in a loop and hands each request to a handler
// worker on the endpoint's resident pool, at most one per slot of the
// endpoint's in-flight cap; excess load is shed with a typed overload
// error. Neither side has a writer goroutine: the goroutine that has a
// frame to send appends it to the connection's pending buffer and,
// unless a flush is already under way, writes the buffer itself (see
// connWriter). Broken connections are evicted and redialed on the next
// call. With WithTLS, every connection is encrypted.
type TCPEndpoint struct {
	ln   net.Listener
	pool *pool
	opts tcpOptions

	// slots is the server-side handler semaphore: one token per request
	// being handled, across all connections.
	slots chan struct{}

	mu      sync.RWMutex
	handler Handler
	closed  bool
	conns   map[net.Conn]struct{} // live server-side connections

	// workers are the resident handler goroutines. A worker parks before
	// it frees its slot, and every worker holds a slot or is parked, which
	// keeps them under cap(slots); the reaper retires the parked ones on
	// each of its ticks, Close retires them all.
	workers *resident.Pool[serverJob]

	wg         sync.WaitGroup
	stopReaper chan struct{}
}

// ListenTCP opens an endpoint on the given address ("127.0.0.1:0" picks a
// free port).
func ListenTCP(bind string, options ...TCPOption) (*TCPEndpoint, error) {
	opts := tcpOptions{
		callTimeout: defaultCallTimeout,
		idleTimeout: defaultIdleTimeout,
		maxInflight: defaultMaxInflight,
	}
	for _, opt := range options {
		opt(&opts)
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", bind, err)
	}
	if opts.tlsConf != nil {
		ln = tls.NewListener(ln, opts.tlsConf)
	}
	e := &TCPEndpoint{
		ln:         ln,
		pool:       newPool(opts.callTimeout, opts.callTimeout, opts.maxInflight, opts.tlsConf),
		opts:       opts,
		slots:      make(chan struct{}, opts.maxInflight),
		workers:    resident.New[serverJob](opts.maxInflight),
		conns:      make(map[net.Conn]struct{}),
		stopReaper: make(chan struct{}),
	}
	e.wg.Add(2)
	go e.acceptLoop()
	go e.reapLoop()
	return e, nil
}

// Addr implements Transport.
func (e *TCPEndpoint) Addr() Addr { return Addr(e.ln.Addr().String()) }

// Serve implements Transport.
func (e *TCPEndpoint) Serve(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// reapLoop periodically closes idle pooled connections and retires parked
// workers.
func (e *TCPEndpoint) reapLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.idleTimeout / 2)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopReaper:
			return
		case <-ticker.C:
			e.pool.reap()
			e.workers.RetireParked()
		}
	}
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		setNoDelay(conn)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serveConn(conn)
			e.mu.Lock()
			delete(e.conns, conn)
			e.mu.Unlock()
			_ = conn.Close()
		}()
	}
}

// setNoDelay disables Nagle on the underlying TCP connection, reaching
// through a TLS wrapper when present.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*tls.Conn); ok {
		conn = tc.NetConn()
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// acceptHello runs the server half of the hello: it reads the magic and
// the offered version, and confirms codecBinary. Anything else — a raw
// frame, a version below codecBinary — is refused before a byte is
// answered.
func (e *TCPEndpoint) acceptHello(conn net.Conn, br *bufio.Reader) error {
	_ = conn.SetReadDeadline(time.Now().Add(e.opts.callTimeout))
	var hello [5]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return err
	}
	if [4]byte(hello[:4]) != codecMagic {
		return errors.New("transport: connection did not open with the hello")
	}
	if hello[4] < codecBinary {
		return fmt.Errorf("transport: peer offered codec %d", hello[4])
	}
	_ = conn.SetWriteDeadline(time.Now().Add(e.opts.callTimeout))
	_, err := conn.Write([]byte{codecBinary})
	return err
}

// serverConn is the write side of one inbound connection, shared by the
// read loop (which sheds on it) and the workers answering its requests.
type serverConn struct {
	e    *TCPEndpoint
	conn net.Conn
	wr   *connWriter
}

// respond encodes resp and sends it through the connection's writer; the
// calling goroutine writes it to the socket itself unless a flush is
// already under way. The writer yields for company when other requests
// are being handled.
func (sc *serverConn) respond(id uint64, resp *Response) {
	frame := acquireFrame()
	err := frame.encode(id, resp)
	if err != nil {
		err = frame.encode(id, &Response{OK: false, Err: err.Error()})
	}
	if err != nil {
		releaseFrame(frame)
		_ = sc.conn.Close() // unblocks the read loop
		return
	}
	if sc.wr.send(context.Background(), frame, len(sc.e.slots) > 1) != nil {
		releaseFrame(frame) // a closed writer already closed the conn
	}
}

// serverJob is one admitted request on its way to a worker; it holds a
// slot, which Done frees.
type serverJob struct {
	sc  *serverConn
	id  uint64
	req *Request
	h   Handler
}

func (j serverJob) Run() {
	if j.h == nil {
		j.sc.respond(j.id, &Response{OK: false, Err: "no handler"})
		return
	}
	j.sc.respond(j.id, j.h(j.req))
}

func (j serverJob) Done() { <-j.sc.e.slots }

// serveConn is the server half of one multiplexed connection: accept the
// hello, then read frames in a loop, handing each to a resident worker
// (see TCPEndpoint) so a slow handler never head-of-line-blocks the
// connection; the worker sends the response through the connection's
// writer. When every handler slot of the endpoint is taken, further
// requests are answered with an overload error without touching the
// handler or a worker — the node sheds load at a deterministic bound
// instead of ballooning goroutines; a shed response waits, like any other,
// for room in the writer, so a peer that floods without reading stalls its
// own read loop here. Any protocol violation (oversized frame, garbage
// payload) or idle expiry ends the connection.
func (e *TCPEndpoint) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	if e.acceptHello(conn, br) != nil {
		return
	}
	sc := &serverConn{e: e, conn: conn}
	sc.wr = newConnWriter(conn, e.opts.callTimeout, cap(e.slots), func(error) { _ = conn.Close() })
	defer sc.wr.close()
	// The idle deadline is four idle timeouts out and pushed back only
	// once one of them has passed, not on every frame.
	var deadlineAt time.Time
	var addrs addrTable
	for {
		if now := time.Now(); now.Sub(deadlineAt) > e.opts.idleTimeout {
			deadlineAt = now
			_ = conn.SetReadDeadline(now.Add(4 * e.opts.idleTimeout))
		}
		req := new(Request)
		id, err := readMuxFrame(br, req, &addrs)
		if err != nil {
			return
		}
		e.mu.RLock()
		h := e.handler
		closed := e.closed
		e.mu.RUnlock()
		if closed {
			return
		}
		select {
		case e.slots <- struct{}{}:
			e.workers.Go(serverJob{sc: sc, id: id, req: req, h: h})
		default:
			// Every handler slot is busy: shed this request now. The
			// response is encoded on the read goroutine — cheap, bounded —
			// and the caller gets a typed ErrOverloaded.
			sc.respond(id, &Response{OK: false, Err: overloadedWireErr})
		}
	}
}

// CallCtx implements Transport. It multiplexes the call over the peer's
// pooled persistent connection; if the connection turns out to be stale before
// the request is sent (e.g. the peer restarted since it was dialed) it
// evicts it and retries once on a fresh dial. Once the request may have
// reached the peer, a failure returns without retrying — at-most-once
// delivery, so non-idempotent ops (migrate) never execute twice. A peer
// that shed the request — or a saturated local in-flight cap — surfaces
// as ErrOverloaded, distinct from ErrUnreachable: the peer is alive,
// just behind. A call whose context ends before or during its dial or
// exchange matches both ErrUnreachable and the context's error; a dial
// that fails on its own (the pool's dial timeout included) is
// ErrUnreachable only.
func (e *TCPEndpoint) CallCtx(ctx context.Context, addr Addr, req *Request) (*Response, error) {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrUnreachable
	}
	var timeout time.Duration
	if _, ok := ctx.Deadline(); !ok {
		timeout = e.opts.callTimeout
	}

	const attempts = 2
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		mc, err := e.pool.get(ctx, addr)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The caller's own cancellation or deadline ended the dial.
				return nil, fmt.Errorf("%w: %w", ErrUnreachable, cerr)
			}
			return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		resp, err := mc.call(ctx, req, timeout)
		if err == nil {
			if resp.Err == overloadedWireErr {
				return nil, fmt.Errorf("%w: %s shed the request", ErrOverloaded, addr)
			}
			return resp, nil
		}
		if errors.Is(err, ErrOverloaded) {
			return nil, err
		}
		broken, isBroken := err.(errConnBroken)
		if !isBroken {
			return nil, fmt.Errorf("%w: %w", ErrUnreachable, err) // timeout/cancel
		}
		e.pool.evict(addr, mc)
		if broken.sent {
			return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %v", ErrUnreachable, lastErr)
}

// Close implements Transport.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	err := e.ln.Close()
	close(e.stopReaper)
	e.pool.closeAll()
	for _, c := range conns {
		_ = c.Close() // unblocks server read loops
	}
	e.wg.Wait()
	e.workers.Close()
	return err
}
