package transport

import (
	"context"
	"fmt"
	"sync"
)

// Fabric is an in-memory transport registry: every endpoint created from the
// same Fabric can call every other. It is the test and single-process
// deployment fabric; calls are direct function invocations on the callee's
// handler, which keeps a 1000-node cluster cheap.
type Fabric struct {
	mu        sync.RWMutex
	endpoints map[Addr]*chanEndpoint
	next      int
}

// NewFabric creates an empty in-memory fabric.
func NewFabric() *Fabric {
	return &Fabric{endpoints: make(map[Addr]*chanEndpoint)}
}

// Endpoint creates a new endpoint with a unique address.
func (f *Fabric) Endpoint() Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	ep := &chanEndpoint{fabric: f, addr: Addr(fmt.Sprintf("mem-%d", f.next))}
	f.endpoints[ep.addr] = ep
	return ep
}

// lookup finds a live endpoint.
func (f *Fabric) lookup(addr Addr) (*chanEndpoint, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ep, ok := f.endpoints[addr]
	return ep, ok
}

// remove unregisters an endpoint.
func (f *Fabric) remove(addr Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.endpoints, addr)
}

// chanEndpoint is one in-memory endpoint.
type chanEndpoint struct {
	fabric *Fabric
	addr   Addr

	mu      sync.RWMutex
	handler Handler
	closed  bool
}

// Addr implements Transport.
func (e *chanEndpoint) Addr() Addr { return e.addr }

// Serve implements Transport.
func (e *chanEndpoint) Serve(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// CallCtx implements Transport. The handler runs on the caller's goroutine
// — in-memory "messages" are synchronous function calls, which preserves
// the request/response semantics while avoiding per-call goroutines.
// Cancellation is honoured at entry only: the in-memory handler runs
// synchronously and cannot be interrupted.
func (e *chanEndpoint) CallCtx(ctx context.Context, addr Addr, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrUnreachable
	}
	target, ok := e.fabric.lookup(addr)
	if !ok {
		return nil, ErrUnreachable
	}
	target.mu.RLock()
	h := target.handler
	tclosed := target.closed
	target.mu.RUnlock()
	if tclosed || h == nil {
		return nil, ErrUnreachable
	}
	return h(req), nil
}

// Close implements Transport.
func (e *chanEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.fabric.remove(e.addr)
	return nil
}
