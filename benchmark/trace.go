package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oscar-overlay/oscar/internal/transport"
)

// Tracing from outside the program: the benchmark wraps every node's
// transport (NodeConfig.WrapTransport / WithTransportWrapper) and records a
// span around each outbound call and each handler invocation, plus one span
// per client operation around the public Node call. The context the client
// passes to Node.Put/Get/Scan is already threaded through internal/p2p to
// the transport, so a call span knows which client operation caused it. No
// id crosses the wire, so handler spans are aggregated per op, not matched
// to the call that caused them.

// layer says which boundary a span was recorded at.
type layer uint8

const (
	layerClient    layer = iota // one public Node.Put/Get/Delete/Scan call
	layerFaultnet               // a call entering the fault-injecting link layer
	layerTransport              // a call entering the real fabric (TCP or in-memory)
	layerHandle                 // the p2p handler serving one request
)

var layerNames = [...]string{"client.op", "faultnet.call", "transport.call", "p2p.handle"}

// span is one timed interval. Parent is the id of the span that caused it
// (0 for none); Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID, Parent uint64
	Start, End int64
	Op         string
	Node       string
	Layer      layer
	Err        bool
}

// tracer owns the spans of one run. Recording is gated by on, so the
// wrappers stay installed (and cost one atomic load) in untraced windows.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// spanBuf is one recorder's private span list, so recorders on different
// nodes never contend. It grows by whole chunks: a traced window records
// about a million spans, and doubling one slice would copy them again and
// again inside the window being measured.
type spanBuf struct {
	mu     sync.Mutex
	chunks [][]span
}

const spanChunk = 1 << 13

func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	if n := len(b.chunks); n == 0 || len(b.chunks[n-1]) == spanChunk {
		b.chunks = append(b.chunks, make([]span, 0, spanChunk))
	}
	last := &b.chunks[len(b.chunks)-1]
	*last = append(*last, s)
	b.mu.Unlock()
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		b.mu.Lock()
		for _, c := range b.chunks {
			out = append(out, c...)
		}
		b.mu.Unlock()
	}
	return out
}

type spanKey struct{}

// withSpan returns a context naming id as the span that causes what follows.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// wrap returns a transport wrapper recording call spans at layer l. With
// handlers it also records a handler span around every request the endpoint
// serves; only the innermost wrapper of a node should.
func (t *tracer) wrap(l layer, handlers bool) func(transport.Transport) transport.Transport {
	return func(inner transport.Transport) transport.Transport {
		return &tracedTransport{inner: inner, t: t, layer: l, handlers: handlers, buf: t.newBuf()}
	}
}

type tracedTransport struct {
	inner    transport.Transport
	t        *tracer
	layer    layer
	handlers bool
	buf      *spanBuf
}

func (w *tracedTransport) Addr() transport.Addr { return w.inner.Addr() }
func (w *tracedTransport) Close() error         { return w.inner.Close() }

func (w *tracedTransport) Call(addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	return w.CallCtx(context.Background(), addr, req)
}

func (w *tracedTransport) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	if !w.t.on.Load() {
		return w.inner.CallCtx(ctx, addr, req)
	}
	s := span{ID: w.t.nextID.Add(1), Op: string(req.Op), Node: string(w.inner.Addr()), Layer: w.layer}
	s.Parent, _ = ctx.Value(spanKey{}).(uint64)
	if w.layer == layerFaultnet {
		// The fabric's own wrapper sits below the fault layer: make its
		// call span a child of this one, so the injected delay is this
		// span's self time.
		ctx = withSpan(ctx, s.ID)
	}
	s.Start = w.t.now()
	resp, err := w.inner.CallCtx(ctx, addr, req)
	s.End = w.t.now()
	s.Err = err != nil
	w.buf.add(s)
	return resp, err
}

func (w *tracedTransport) Serve(h transport.Handler) {
	if !w.handlers {
		w.inner.Serve(h)
		return
	}
	node := string(w.inner.Addr())
	w.inner.Serve(func(req *transport.Request) *transport.Response {
		if !w.t.on.Load() {
			return h(req)
		}
		s := span{ID: w.t.nextID.Add(1), Op: string(req.Op), Node: node, Layer: layerHandle, Start: w.t.now()}
		resp := h(req)
		s.End = w.t.now()
		w.buf.add(s)
		return resp
	})
}

// traceStats is what one traced window says about the layers.
type traceStats struct {
	// self is, per client op name, each operation's time outside any call
	// it caused: span minus the union of its child call spans.
	self map[string][]time.Duration
	// fanout is, per put, the union of its replicate calls.
	fanout []time.Duration
	// calls and handles are the durations per layer and op.
	calls   map[layer]map[string][]time.Duration
	handles map[string][]time.Duration
	// opCalls counts calls caused directly by a client op; failedCalls the
	// calls at the fabric that returned an error.
	opCalls, fabricCalls, failedCalls int
	// busiest is the largest per-node sum of handler time.
	busiest time.Duration
}

// analyze folds the spans that ended inside [lo, hi) into per-layer numbers.
func analyze(spans []span, lo, hi int64) traceStats {
	st := traceStats{
		self:    map[string][]time.Duration{},
		calls:   map[layer]map[string][]time.Duration{layerFaultnet: {}, layerTransport: {}},
		handles: map[string][]time.Duration{},
	}
	children := map[uint64][]span{}
	busy := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < lo || s.End >= hi {
			continue
		}
		d := time.Duration(s.End - s.Start)
		switch s.Layer {
		case layerHandle:
			st.handles[s.Op] = append(st.handles[s.Op], d)
			busy[s.Node] += d
		case layerFaultnet, layerTransport:
			st.calls[s.Layer][s.Op] = append(st.calls[s.Layer][s.Op], d)
			if s.Layer == layerTransport {
				st.fabricCalls++
				if s.Err {
					st.failedCalls++
				}
			}
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
	}
	for _, d := range busy {
		st.busiest = max(st.busiest, d)
	}
	for _, s := range spans {
		if s.Layer != layerClient || s.End < lo || s.End >= hi {
			continue
		}
		var all, repl [][2]int64
		for _, c := range children[s.ID] {
			all = append(all, [2]int64{c.Start, c.End})
			if c.Op == string(transport.OpReplicate) {
				repl = append(repl, [2]int64{c.Start, c.End})
			}
		}
		st.opCalls += len(all)
		st.self[s.Op] = append(st.self[s.Op], time.Duration(s.End-s.Start-unionLength(all, s.Start, s.End)))
		if s.Op == "put" {
			st.fanout = append(st.fanout, time.Duration(unionLength(repl, s.Start, s.End)))
		}
	}
	return st
}

// dumpSpans writes every span as one JSON object per line.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendUint(line, s.ID, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.Parent, 10)
		line = append(line, `,"name":"`...)
		line = append(line, layerNames[s.Layer]...)
		line = append(line, `","op":"`...)
		line = append(line, s.Op...)
		line = append(line, `","node":"`...)
		line = append(line, s.Node...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, `,"err":`...)
		line = strconv.AppendBool(line, s.Err)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
