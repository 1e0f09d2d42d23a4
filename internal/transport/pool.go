package transport

import (
	"context"
	"crypto/tls"
	"net"
	"sync"
	"time"
)

// pool keeps the persistent client connections of one TCP endpoint: a small
// set per peer, dialed lazily on first use (TLS-wrapped and past the hello
// before first use), shared by concurrent calls, evicted when broken, and
// reaped when idle.
type pool struct {
	dialTimeout  time.Duration
	writeTimeout time.Duration
	perPeer      int // connection cap per peer
	maxInflight  int // per-connection in-flight cap
	tlsConf      *tls.Config

	mu     sync.Mutex
	peers  map[Addr]*peerConns
	closed bool
}

// peerConns is one peer's connection set; per-peer state keeps a slow dial
// to one peer from stalling calls to every other peer. dialing counts
// in-flight dials so the pool opens at most perPeer connections without
// ever holding the lock across a dial; callers that found every slot
// mid-dial wait on dialed for a result instead of dialing redundantly.
type peerConns struct {
	mu      sync.Mutex
	conns   []*muxConn
	dialing int
	// dialed is non-nil while a caller waits for a dial to land; the next
	// dial to complete closes it.
	dialed chan struct{}
}

// pruneLocked drops broken connections; callers hold pc.mu.
func (pc *peerConns) pruneLocked() {
	live := pc.conns[:0]
	for _, c := range pc.conns {
		if !c.isBroken() {
			live = append(live, c)
		}
	}
	pc.conns = live
}

// leastLoadedLocked returns the live connection with the fewest in-flight
// calls (nil if none); callers hold pc.mu.
func (pc *peerConns) leastLoadedLocked() (*muxConn, int) {
	var best *muxConn
	bestLoad := -1
	for _, c := range pc.conns {
		if load := c.inflight(); best == nil || load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best, bestLoad
}

func newPool(perPeer int, dialTimeout, writeTimeout time.Duration, maxInflight int, tlsConf *tls.Config) *pool {
	return &pool{
		dialTimeout:  dialTimeout,
		writeTimeout: writeTimeout,
		perPeer:      perPeer,
		maxInflight:  maxInflight,
		tlsConf:      tlsConf,
		peers:        make(map[Addr]*peerConns),
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

// get returns a live connection to addr, dialing lazily. Under concurrent
// load it spreads calls across up to perPeer connections: an existing idle
// connection is reused immediately, and a new one is dialed only while all
// existing ones are busy and the cap has room. Dials happen outside the
// peer lock and are bounded by the caller's context, so concurrent calls
// to a dead peer time out in parallel, not serially; a caller waiting for
// another's dial gives up when its own context ends, with ctx.Err().
func (p *pool) get(ctx context.Context, addr Addr) (*muxConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrUnreachable
	}
	pc, ok := p.peers[addr]
	if !ok {
		pc = &peerConns{}
		p.peers[addr] = pc
	}
	p.mu.Unlock()

	pc.mu.Lock()
	for {
		pc.pruneLocked()
		best, bestLoad := pc.leastLoadedLocked()
		if best != nil && (bestLoad == 0 || len(pc.conns)+pc.dialing >= p.perPeer) {
			pc.mu.Unlock()
			return best, nil
		}
		if len(pc.conns)+pc.dialing < p.perPeer {
			pc.dialing++
			break
		}
		// Every cap slot is an in-flight dial: wait for one to land
		// rather than dialing redundantly, but no longer than ctx allows —
		// the other caller's dial may run to the pool's dial timeout.
		if pc.dialed == nil {
			pc.dialed = make(chan struct{})
		}
		dialed := pc.dialed
		pc.mu.Unlock()
		select {
		case <-dialed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		pc.mu.Lock()
	}
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
	pc.dialing--
	if pc.dialed != nil {
		close(pc.dialed)
		pc.dialed = nil
	}
	if err != nil {
		pc.pruneLocked()
		fallback, _ := pc.leastLoadedLocked()
		pc.mu.Unlock()
		if fallback != nil {
			return fallback, nil // the peer may still answer on a busy conn
		}
		return nil, err
	}
	mc := newMuxConn(conn, p.writeTimeout, p.maxInflight)
	pc.pruneLocked()
	// The reserved dialing slot guarantees room under the cap.
	pc.conns = append(pc.conns, mc)
	pc.mu.Unlock()
	return mc, nil
}

// evict removes a broken connection from the peer's set and closes it.
func (p *pool) evict(addr Addr, mc *muxConn) {
	p.mu.Lock()
	pc := p.peers[addr]
	p.mu.Unlock()
	if pc == nil {
		mc.close()
		return
	}
	pc.mu.Lock()
	for i, c := range pc.conns {
		if c == mc {
			pc.conns = append(pc.conns[:i], pc.conns[i+1:]...)
			break
		}
	}
	pc.mu.Unlock()
	mc.close()
}

// reap is one reaper tick: it closes the connections that have now sat
// idle (nothing in flight, no call started) for maxIdleTicks ticks in a
// row, returning how many it closed.
func (p *pool) reap() int {
	p.mu.Lock()
	peers := make([]*peerConns, 0, len(p.peers))
	for _, pc := range p.peers {
		peers = append(peers, pc)
	}
	p.mu.Unlock()

	closed := 0
	for _, pc := range peers {
		pc.mu.Lock()
		kept := pc.conns[:0]
		for _, c := range pc.conns {
			if c.idleTick() {
				c.close()
				closed++
				continue
			}
			kept = append(kept, c)
		}
		pc.conns = kept
		pc.mu.Unlock()
	}
	return closed
}

// closeAll tears every connection down and rejects future gets.
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	peers := p.peers
	p.peers = make(map[Addr]*peerConns)
	p.mu.Unlock()
	for _, pc := range peers {
		pc.mu.Lock()
		for _, c := range pc.conns {
			c.close()
		}
		pc.conns = nil
		pc.mu.Unlock()
	}
}
