package transport

import (
	"context"
	"crypto/tls"
	"net"
	"sync"
	"time"
)

// pool keeps the persistent client connections of one TCP endpoint: one
// per peer, dialed lazily on first use (TLS-wrapped and past the hello
// before first use), shared by concurrent calls, evicted when broken, and
// reaped when idle.
type pool struct {
	dialTimeout  time.Duration
	writeTimeout time.Duration
	maxInflight  int // per-connection in-flight cap
	tlsConf      *tls.Config

	mu     sync.Mutex
	peers  map[Addr]*peerConn
	closed bool
}

// peerConn is one peer's connection; per-peer state keeps a slow dial to
// one peer from stalling calls to every other peer. The dial runs outside
// the lock, and callers that find it under way wait on dialed for it
// instead of dialing redundantly.
type peerConn struct {
	mu   sync.Mutex
	conn *muxConn
	// dialed is non-nil while a dial is under way; the dial closes it when
	// it lands.
	dialed chan struct{}
}

func newPool(dialTimeout, writeTimeout time.Duration, maxInflight int, tlsConf *tls.Config) *pool {
	return &pool{
		dialTimeout:  dialTimeout,
		writeTimeout: writeTimeout,
		maxInflight:  maxInflight,
		tlsConf:      tlsConf,
		peers:        make(map[Addr]*peerConn),
	}
}

// dial opens, wraps and greets one connection to addr: TCP dial, TLS
// handshake when configured, then the hello offering codecBinary, which the
// server must confirm. The context bounds the whole sequence.
func (p *pool) dial(ctx context.Context, addr Addr) (net.Conn, error) {
	dialer := net.Dialer{Timeout: p.dialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", string(addr))
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if p.tlsConf != nil {
		cfg := p.tlsConf
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			cfg = cfg.Clone()
			if host, _, err := net.SplitHostPort(string(addr)); err == nil {
				cfg.ServerName = host
			}
		}
		tconn := tls.Client(conn, cfg)
		if err := tconn.HandshakeContext(ctx); err != nil {
			_ = conn.Close()
			return nil, err
		}
		conn = tconn
	}
	deadline := time.Now().Add(p.dialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	hello := [5]byte{codecMagic[0], codecMagic[1], codecMagic[2], codecMagic[3], codecBinary}
	if _, err := conn.Write(hello[:]); err != nil {
		_ = conn.Close()
		return nil, err
	}
	var reply [1]byte
	if _, err := conn.Read(reply[:]); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if reply[0] != codecBinary {
		_ = conn.Close()
		return nil, errBadPayload
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// get returns the live connection to addr, whatever its load, dialing it
// when it is missing or broken. The dial happens outside the peer lock and
// is bounded by the caller's context; a caller that finds another's dial
// under way waits for it, giving up when its own context ends, with
// ctx.Err(), and dials itself if that dial failed.
func (p *pool) get(ctx context.Context, addr Addr) (*muxConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrUnreachable
	}
	pc, ok := p.peers[addr]
	if !ok {
		pc = &peerConn{}
		p.peers[addr] = pc
	}
	p.mu.Unlock()

	pc.mu.Lock()
	for {
		if c := pc.conn; c != nil && !c.isBroken() {
			pc.mu.Unlock()
			return c, nil
		}
		if pc.dialed == nil {
			break
		}
		// The other caller's dial may run to the pool's dial timeout: wait
		// no longer than ctx allows.
		dialed := pc.dialed
		pc.mu.Unlock()
		select {
		case <-dialed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		pc.mu.Lock()
	}
	dialed := make(chan struct{})
	pc.dialed = dialed
	pc.mu.Unlock()

	// A call whose context has no deadline is bounded by a timer of its
	// own (muxConn.call); the dial it may need is bounded here.
	dialCtx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dialCtx, cancel = context.WithTimeout(ctx, p.dialTimeout)
		defer cancel()
	}
	conn, err := p.dial(dialCtx, addr)

	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.dialed = nil
	close(dialed)
	if err != nil {
		return nil, err
	}
	pc.conn = newMuxConn(conn, p.writeTimeout, p.maxInflight)
	return pc.conn, nil
}

// evict drops a broken connection from the peer's slot and closes it.
func (p *pool) evict(addr Addr, mc *muxConn) {
	p.mu.Lock()
	pc := p.peers[addr]
	p.mu.Unlock()
	if pc != nil {
		pc.mu.Lock()
		if pc.conn == mc {
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
	mc.close()
}

// reap is one reaper tick: it closes the connections that have now sat
// idle (nothing in flight, no call started) for maxIdleTicks ticks in a
// row, returning how many it closed.
func (p *pool) reap() int {
	p.mu.Lock()
	peers := make([]*peerConn, 0, len(p.peers))
	for _, pc := range p.peers {
		peers = append(peers, pc)
	}
	p.mu.Unlock()

	closed := 0
	for _, pc := range peers {
		pc.mu.Lock()
		if c := pc.conn; c != nil && c.idleTick() {
			c.close()
			pc.conn = nil
			closed++
		}
		pc.mu.Unlock()
	}
	return closed
}

// closeAll tears every connection down and rejects future gets.
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	peers := p.peers
	p.peers = make(map[Addr]*peerConn)
	p.mu.Unlock()
	for _, pc := range peers {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.close()
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
}
