package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"
)

// maxFrame bounds a wire payload; anything larger is a protocol violation
// and kills the connection.
const maxFrame = 16 << 20

// frameHeaderSize is [4-byte payload length][8-byte request id].
const frameHeaderSize = 12

// maxPooledBuf caps the buffers a frame or a connection keeps for itself:
// a wireFrame's own buffer, which encodes every frame up to this size, and
// each connection's pending-write buffers, which such frames are copied
// into. A frame that outgrows it while it is encoded moves to the write
// pool (largePools) and is written from there, never copied into (or
// pinning) a pending buffer. The read side keeps no buffer but each
// connection's bufio.Reader (see readMuxFrame).
const maxPooledBuf = 64 << 10

// The write pool's buffers are powers of two from 128 KiB to maxLargeBuf,
// which holds a scan page of 8192 × 100 B values (≈ 0.9 MB). A frame over
// maxLargeBuf (a bulk migrate of big values, a put of a 1 MiB value) is
// encoded into a buffer of its own, which the allocator takes back after
// its write.
const (
	minLargeShift = 17
	maxLargeShift = 20
	maxLargeBuf   = 1 << maxLargeShift
)

// largePools holds the write pool, one sync.Pool per buffer size, so a
// buffer that sits idle through two collections goes back to the
// allocator: a burst of scan pages pins nothing once it is over.
var largePools [maxLargeShift - minLargeShift + 1]sync.Pool

// getLarge returns a write-pool buffer of at least n ≤ maxLargeBuf bytes.
func getLarge(n int) *[]byte {
	shift := max(bits.Len(uint(n-1)), minLargeShift)
	if b, ok := largePools[shift-minLargeShift].Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, 0, 1<<shift)
	return &b
}

// putLarge returns a buffer from getLarge to its pool; nil is a no-op.
func putLarge(b *[]byte) {
	if b != nil {
		largePools[bits.Len(uint(cap(*b)))-1-minLargeShift].Put(b)
	}
}

// wireFrame is a reusable buffer for one outgoing frame. Encoding writes
// the header placeholder and the payload into one contiguous buffer — no
// intermediate marshal allocation, no header+payload copy. The frame
// encodes into its own buffer, at most maxPooledBuf, and moves to a
// write-pool buffer when it outgrows that (binWriter.grow); framePool,
// which serves the write side only, recycles the frame with its own
// buffer once it has left for the wire, and releaseFrame hands a
// write-pool buffer back to its pool, so a frame in framePool never holds
// one.
type wireFrame struct {
	out   []byte  // the encoded frame
	own   []byte  // the frame's own buffer, at most maxPooledBuf
	large *[]byte // the write-pool buffer out was moved to, if any
}

var framePool = sync.Pool{New: func() interface{} { return &wireFrame{} }}

func acquireFrame() *wireFrame { return framePool.Get().(*wireFrame) }

// releaseFrame recycles f once nothing reads its bytes any more.
func releaseFrame(f *wireFrame) {
	putLarge(f.large)
	f.out, f.large = nil, nil
	framePool.Put(f)
}

// moveLarge copies the frame encoded so far, b, to a buffer with room for
// need > maxPooledBuf bytes: a write-pool buffer when need fits
// maxLargeBuf, else one from the allocator. The frame keeps the buffer it
// leaves when that is its own; a write-pool one goes back to its pool.
func (f *wireFrame) moveLarge(b []byte, need int) []byte {
	if cap(b) <= maxPooledBuf {
		f.own = b[:0]
	}
	left := f.large
	f.large = nil
	if need <= maxLargeBuf {
		f.large = getLarge(need)
		b = append((*f.large)[:0], b...)
	} else {
		b = slices.Grow(b, need-len(b))
	}
	putLarge(left)
	return b
}

// encode fills the frame with header (payload length + request id) and the
// payload for v. Encoding failures (unencodable value, oversized payload)
// happen before anything touches the wire, so they never corrupt the
// connection's frame stream. The frame is reusable after an error.
func (f *wireFrame) encode(id uint64, v interface{}) error {
	var hdr [frameHeaderSize]byte
	w := binWriter{b: append(f.own[:0], hdr[:]...), frame: f}
	switch m := v.(type) {
	case *Request:
		w.request(m)
	case *Response:
		w.response(m)
	default:
		return fmt.Errorf("transport: cannot encode %T", v)
	}
	out := w.b
	if cap(out) <= maxPooledBuf {
		f.own = out[:0]
	}
	f.out = out
	payload := len(out) - frameHeaderSize
	if payload > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", payload)
	}
	binary.BigEndian.PutUint32(out[0:4], uint32(payload))
	binary.BigEndian.PutUint64(out[4:12], id)
	return nil
}

// bytes returns the encoded frame, valid until the next encode or release.
func (f *wireFrame) bytes() []byte { return f.out }

// connWriter is one connection's write half, and it has no goroutine of its
// own. A sender appends its encoded frame to the pending buffer under mu;
// whoever finds no flush in progress becomes the flusher and writes
// everything pending with one Write, again until nothing is pending, so a
// lone frame costs one lock and one syscall on its caller's goroutine and
// a burst from many callers leaves in one syscall. When other calls are in
// flight on the connection the flusher yields the processor once before it
// takes the buffer — that is what lets their frames join its write. A
// frame over maxPooledBuf is written from its own buffer instead of being
// copied into (and pinned by) the pending one, and the flusher releases it
// after that Write has returned, so its write-pool buffer goes back for the
// next large frame; a queued frame the writer drops (past a write error, on
// close) is released too. The flusher is a caller: it
// returns when its Write returns, which the write deadline bounds by
// timeout. Pending frames are capped at limit, the in-flight cap of the
// side that owns the writer: a sender past it waits for the flusher (or
// its context), the backpressure against a peer that stops reading. The
// first write error fires onErr (once) and closes the writer — frame state
// past an error is unknown, so the connection must die with it.
type connWriter struct {
	conn    net.Conn
	timeout time.Duration
	limit   int
	onErr   func(error)

	mu       sync.Mutex
	pending  []byte       // frames up to maxPooledBuf, back to back
	spare    []byte       // the buffer of the previous write, for reuse
	large    []*wireFrame // frames over maxPooledBuf, each in its own buffer
	queued   int          // frames in pending and large
	flushing bool         // a flusher is at work and will take what is queued
	closed   bool
	// space is non-nil while a sender waits for room; taking the buffer (or
	// closing) closes it.
	space chan struct{}

	// deadlineAt is when the write deadline was last set; flusher only.
	deadlineAt time.Time
}

func newConnWriter(conn net.Conn, timeout time.Duration, limit int, onErr func(error)) *connWriter {
	if limit <= 0 {
		limit = defaultMaxInflight
	}
	return &connWriter{conn: conn, timeout: timeout, limit: limit, onErr: onErr}
}

var errWriterClosed = errors.New("transport: connection writer closed")

// send queues one frame for the wire and, when no flush is in progress,
// flushes. busy says other calls are in flight on the connection. It
// blocks only while limit frames are already pending, and then no longer
// than ctx allows. On success the writer owns the frame; on failure
// nothing was queued and ownership stays with the caller.
func (w *connWriter) send(ctx context.Context, frame *wireFrame, busy bool) error {
	w.mu.Lock()
	for !w.closed && w.queued >= w.limit {
		if w.space == nil {
			w.space = make(chan struct{})
		}
		space := w.space
		w.mu.Unlock()
		select {
		case <-space:
		case <-ctx.Done():
			return ctx.Err()
		}
		w.mu.Lock()
	}
	if w.closed {
		w.mu.Unlock()
		return errWriterClosed
	}
	if b := frame.bytes(); len(b) > maxPooledBuf {
		w.large = append(w.large, frame) // released by the flusher after its write
		frame = nil
	} else {
		w.pending = append(w.pending, b...)
	}
	w.queued++
	flush := !w.flushing
	w.flushing = true
	w.mu.Unlock()
	if frame != nil {
		releaseFrame(frame)
	}
	if flush {
		w.flush(busy)
	}
	return nil
}

// flush writes what is queued until nothing is; the caller has set
// flushing.
func (w *connWriter) flush(busy bool) {
	var written []byte
	var wroteLarge []*wireFrame
	for {
		w.mu.Lock()
		if written != nil && cap(written) <= maxPooledBuf {
			w.spare = written[:0]
		}
		if wroteLarge != nil && w.large == nil {
			w.large = wroteLarge[:0]
		}
		if w.queued == 0 || w.closed {
			w.flushing = false
			w.mu.Unlock()
			return
		}
		if busy {
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
		}
		buf, large := w.pending, w.large
		w.pending, w.spare, w.large, w.queued = w.spare, nil, nil, 0
		if w.space != nil {
			close(w.space)
			w.space = nil
		}
		w.mu.Unlock()

		// A quarter of the interval is the most a write can find missing
		// from its deadline; setting one costs a runtime timer update.
		if now := time.Now(); now.Sub(w.deadlineAt) > w.timeout/4 {
			w.deadlineAt = now
			_ = w.conn.SetWriteDeadline(now.Add(w.timeout))
		}
		var err error
		if len(buf) > 0 {
			_, err = w.conn.Write(buf)
		}
		for _, f := range large {
			if err == nil {
				_, err = w.conn.Write(f.bytes())
			}
			releaseFrame(f)
		}
		clear(large)
		if err != nil {
			w.close()
			w.onErr(err)
			return
		}
		// Frames that arrived during the write are other callers at work.
		written, wroteLarge, busy = buf, large, true
	}
}

// close stops the writer: queued frames are dropped (the connection is
// dying anyway) and released, and waiting senders fail. Idempotent.
func (w *connWriter) close() {
	w.mu.Lock()
	w.closed = true
	large := w.large
	w.pending, w.spare, w.large, w.queued = nil, nil, nil, 0
	if w.space != nil {
		close(w.space)
		w.space = nil
	}
	w.mu.Unlock()
	for _, f := range large {
		releaseFrame(f)
	}
}

// readMuxFrame receives one frame and decodes its payload into v, returning
// the frame's request id. A length over maxFrame or an undecodable payload
// is a protocol violation: the caller must close the connection. A frame
// that fits r's buffer is decoded in place there and its values are copied
// out (decodeRequest, decodeResponse), since the next frame reuses that
// buffer. A larger one is read into a buffer of exactly its size that
// nothing reuses, and its decoded values stay in it (see decodeFrame): a
// kept value pins at most the frame it arrived in, never a buffer the
// transport reuses.
// addrs is the calling read loop's address table (see addrTable).
func readMuxFrame(r *bufio.Reader, v interface{}, addrs *addrTable) (uint64, error) {
	hdr, err := r.Peek(frameHeaderSize)
	if err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	id := binary.BigEndian.Uint64(hdr[4:12])
	if n > maxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if size := frameHeaderSize + int(n); size <= r.Size() {
		frame, err := r.Peek(size)
		if err != nil {
			return 0, err
		}
		err = decodeFrame(frame[frameHeaderSize:], v, addrs, false)
		_, _ = r.Discard(size)
		return id, err
	}
	_, _ = r.Discard(frameHeaderSize)
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, err
	}
	return id, decodeFrame(payload, v, addrs, true)
}

// decodeFrame decodes one frame's payload into v. kept says the payload
// is a buffer of the frame's own that nothing reuses: its values then stay
// in it, unless they are under half of its bytes (a repair answer that is
// mostly per-key states and tombstones), so that a kept value never pins
// more than twice the bytes of its frame's values. Otherwise the values
// are copied out.
func decodeFrame(payload []byte, v interface{}, addrs *addrTable, kept bool) error {
	var err error
	switch m := v.(type) {
	case *Request:
		if !kept {
			err = decodeRequest(payload, m, addrs)
		} else if err = parseRequest(payload, m, addrs); err == nil && 2*valuesLen(m.Value, m.Items) < len(payload) {
			ownValues(&m.Value, m.Items)
		}
	case *Response:
		if !kept {
			err = decodeResponse(payload, m, addrs)
		} else if err = parseResponse(payload, m, addrs); err == nil && 2*valuesLen(m.Value, m.Items) < len(payload) {
			ownValues(&m.Value, m.Items)
		}
	default:
		err = fmt.Errorf("transport: cannot decode %T", v)
	}
	if err != nil {
		return fmt.Errorf("transport: bad frame payload: %w", err)
	}
	return nil
}

// errConnBroken marks a connection-level failure (as opposed to a per-call
// timeout): the pooled connection is unusable and must be evicted. sent
// distinguishes whether the request may have reached the peer — only
// unsent requests are safe to retry on a fresh connection (a sent request
// could otherwise execute twice, which non-idempotent ops like migrate
// cannot tolerate).
type errConnBroken struct {
	cause error
	sent  bool
}

func (e errConnBroken) Error() string {
	return fmt.Sprintf("transport: connection broken: %v", e.cause)
}
func (e errConnBroken) Unwrap() error { return e.cause }

// muxConn is one client-side persistent connection: many concurrent calls
// share it, each tagged with a request id; a demux read loop routes
// response frames to the waiting caller's channel. A semaphore caps the calls in flight — the
// client half of transport backpressure: a caller that cannot get a slot
// before its deadline fails with ErrOverloaded instead of piling onto a
// peer that is already behind. The first I/O error breaks the connection:
// all in-flight calls fail, and the pool evicts it.
type muxConn struct {
	conn net.Conn
	wr   *connWriter
	sem  chan struct{} // in-flight cap; nil = uncapped

	mu      sync.Mutex
	pending map[uint64]chan *Response
	nextID  uint64
	broken  bool
	cause   error
	// idleTicks counts the reaper ticks since a call last started; the
	// call path reads no clock for it.
	idleTicks int

	dead chan struct{} // closed when the read loop exits
}

// maxIdleTicks is how many reaper ticks in a row must find a connection
// with no call in flight and none started since the tick before, for the
// reaper to close it. The reaper ticks twice per idle timeout, so three
// ticks span at least one whole timeout of silence and at most one and a
// half.
const maxIdleTicks = 3

// newMuxConn wraps a dialed (and handshaken) connection and starts its
// demux loop. maxInflight caps concurrent calls on this connection (0 =
// uncapped).
func newMuxConn(conn net.Conn, writeTimeout time.Duration, maxInflight int) *muxConn {
	c := &muxConn{
		conn:    conn,
		pending: make(map[uint64]chan *Response),
		dead:    make(chan struct{}),
	}
	if maxInflight > 0 {
		c.sem = make(chan struct{}, maxInflight)
	}
	c.wr = newConnWriter(conn, writeTimeout, maxInflight, c.fail)
	go c.readLoop()
	return c
}

// readLoop demultiplexes response frames to their callers until the
// connection dies.
func (c *muxConn) readLoop() {
	br := bufio.NewReader(c.conn)
	var addrs addrTable
	for {
		var resp Response
		id, err := readMuxFrame(br, &resp, &addrs)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- &resp // buffered: never blocks the loop
		}
		// An unknown id is a response whose caller already timed out and
		// abandoned the slot: drop it, the connection stays healthy.
	}
}

// fail marks the connection broken, closes it, and wakes every in-flight
// caller. Idempotent; only the first cause is kept.
func (c *muxConn) fail(cause error) {
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return
	}
	c.broken = true
	c.cause = cause
	c.pending = make(map[uint64]chan *Response)
	c.mu.Unlock()
	c.wr.close()
	_ = c.conn.Close()
	close(c.dead)
}

// isBroken reports whether the connection has failed.
func (c *muxConn) isBroken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// inflight returns the number of calls awaiting a response.
func (c *muxConn) inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// idleTick is one reaper tick: it reports whether the connection has now
// been idle for maxIdleTicks of them.
func (c *muxConn) idleTick() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) > 0 {
		c.idleTicks = 0
		return false
	}
	c.idleTicks++
	return c.idleTicks >= maxIdleTicks
}

// brokenErr is the error of a call that found the connection broken; sent
// says whether its frame had been queued by then.
func (c *muxConn) brokenErr(sent bool) error {
	c.mu.Lock()
	cause := c.cause
	c.mu.Unlock()
	return errConnBroken{cause: cause, sent: sent}
}

// waiterPool recycles the one-slot channels calls wait on. A channel goes
// back only when nothing can send on it any more: its one response was
// received, or its id was still registered when the call took it back.
var waiterPool = sync.Pool{New: func() interface{} { return make(chan *Response, 1) }}

// timerPool recycles the timers of calls whose context has no deadline.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer stops and recycles t: a stopped timer's channel holds no
// stale tick (Go 1.23 timers), so the next call can wait on it.
func releaseTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// call sends one request over the shared connection and waits for its
// response, the context deadline, or connection failure; timeout, when
// positive, bounds the call as a context deadline would (the endpoint's
// default for a context that has none — a pooled timer, not a derived
// context per call). An expiry abandons the response slot without harming
// the connection; a context already done when the frame is ready sends
// nothing; a write failure breaks the connection (frame state is unknown
// past it). A context that expires while the in-flight cap is saturated —
// before the call even acquired a slot — fails with ErrOverloaded, the
// typed signal that this client is outrunning the peer.
func (c *muxConn) call(ctx context.Context, req *Request, timeout time.Duration) (*Response, error) {
	var expired <-chan time.Time
	if timeout > 0 {
		t := acquireTimer(timeout)
		defer releaseTimer(t)
		expired = t.C
	}
	if c.sem != nil {
		select {
		case c.sem <- struct{}{}:
		default:
			// Saturated: wait for a slot, but surface saturation as
			// overload rather than a generic deadline when the wait loses.
			select {
			case c.sem <- struct{}{}:
			case <-c.dead:
				return nil, c.brokenErr(false)
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %d calls in flight (%v)", ErrOverloaded, cap(c.sem), ctx.Err())
			case <-expired:
				return nil, fmt.Errorf("%w: %d calls in flight (%v)", ErrOverloaded, cap(c.sem), context.DeadlineExceeded)
			}
		}
		defer func() { <-c.sem }()
	}

	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return nil, c.brokenErr(false)
	}
	c.nextID++
	id := c.nextID
	ch := waiterPool.Get().(chan *Response)
	c.pending[id] = ch
	busy := len(c.pending) > 1
	c.idleTicks = 0
	c.mu.Unlock()

	frame := acquireFrame()
	err := frame.encode(id, req)
	if err == nil {
		// Checked last, so a call whose context ended while it waited for
		// a slot or encoded puts nothing on the wire.
		err = ctx.Err()
	}
	if err == nil {
		err = c.wr.send(ctx, frame, busy)
	}
	if err != nil {
		// Nothing was queued: the request is unsendable, its context is
		// done, or the connection broke first.
		releaseFrame(frame)
		c.forget(id, ch)
		if err == errWriterClosed {
			return nil, c.brokenErr(false)
		}
		return nil, err
	}

	select {
	case resp := <-ch:
		waiterPool.Put(ch)
		return resp, nil
	case <-c.dead:
		c.forget(id, ch)
		// The frame was queued and possibly delivered: not retryable.
		return nil, c.brokenErr(true)
	case <-ctx.Done():
		c.forget(id, ch)
		return nil, ctx.Err()
	case <-expired:
		c.forget(id, ch)
		return nil, context.DeadlineExceeded
	}
}

// forget abandons a pending call's response slot. The waiter channel is
// recycled only if the id was still registered: once the read loop has
// taken it, a response may yet land on the channel.
func (c *muxConn) forget(id uint64, ch chan *Response) {
	c.mu.Lock()
	_, registered := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if registered {
		waiterPool.Put(ch)
	}
}

// close tears the connection down, failing any in-flight calls.
func (c *muxConn) close() {
	c.fail(errors.New("transport: connection closed"))
}
