// Package faultnet injects deterministic, seeded network faults between a
// node and its transport — the harness that turns a perfect fabric into
// the heterogeneous environment the overlay is designed for.
//
// A Network holds the fault model: a default Faults mix, per-link
// (src→dst) overrides, asymmetric partition blocks, and per-node slowness
// multipliers. Network.Wrap turns any transport.Transport — the in-memory
// Fabric endpoint or a TCPEndpoint alike — into an endpoint whose outbound
// calls pass through the model: calls are dropped (ErrUnreachable), shed
// (ErrOverloaded), delayed (latency + jitter, scaled by the slowness of
// both ends), duplicated, or blocked by a partition, each decided
// deterministically from the Network seed, the link, and a per-link call
// counter. The same seed therefore produces the same fault schedule on
// every run — a failing soak replays.
//
// Faults are applied caller-side, before delivery. A dropped or shed call
// never reaches the peer, which keeps the transport's at-most-once
// contract intact: retrying a faulted call can never double-execute an op,
// so non-idempotent ops (migrate) stay safe under injected loss.
// Response loss — the half of packet loss that strands executed work — is
// deliberately out of scope: the crash scenarios already cover it.
//
// The model is mutable at runtime (SetDefault, SetLink, Partition,
// SlowNode, Heal) so a Plan can script phases: degrade, partition, heal,
// assert convergence. All methods are safe for concurrent use.
package faultnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/oscar-overlay/oscar/internal/transport"
)

// Faults is the fault mix applied to calls on one link (an ordered
// src→dst pair). Probabilities are in [0, 1]; the zero value is a perfect
// link.
type Faults struct {
	// Drop is the probability a call is lost before delivery. The caller
	// sees transport.ErrUnreachable; the peer sees nothing.
	Drop float64
	// DropReply is the probability a call is delivered — the peer executes
	// it — and its response is lost: the caller sees
	// transport.ErrUnreachable for an op that ran, the ambiguous failure
	// that makes re-sending a write unsafe.
	DropReply float64
	// Overload is the probability a call is shed before delivery with
	// transport.ErrOverloaded — synthetic backpressure, for exercising the
	// overloaded-is-not-dead contract on fabrics that never saturate.
	Overload float64
	// Duplicate is the probability a delivered call is delivered a second
	// time (asynchronously; the first response is returned). Migrate is
	// exempt: it extracts state, so a duplicate would destroy data no real
	// duplicated packet could (TCP dedupes), not reveal a bug.
	Duplicate float64
	// Latency is a fixed delay added to every call on the link, and Jitter
	// a uniform extra in [0, Jitter). Both are scaled by the slowness
	// multipliers of the two ends (SlowNode).
	Latency time.Duration
	Jitter  time.Duration
}

// Stats counts what the network injected since construction. Snapshot via
// Network.Stats.
type Stats struct {
	// Calls is every outbound call that consulted the model.
	Calls int64
	// Dropped, Overloaded, Duplicated and Blocked count the faults
	// injected: lost calls (or replies), shed calls, extra deliveries, and calls
	// refused by a partition.
	Dropped    int64
	Overloaded int64
	Duplicated int64
	Blocked    int64
	// Delayed is the total injected latency across all calls.
	Delayed time.Duration
}

type linkKey struct{ src, dst transport.Addr }

// Network is one fault model shared by every endpoint wrapped on it.
type Network struct {
	seed int64

	mu      sync.Mutex
	def     Faults
	links   map[linkKey]Faults
	blocked map[linkKey]struct{}
	slow    map[transport.Addr]float64
	seq     map[linkKey]uint64
	stats   Stats
}

// New builds a fault-free Network. The seed fixes the fault schedule:
// call n on link src→dst makes the same drop/shed/duplicate/jitter
// decisions on every run with the same seed.
func New(seed int64) *Network {
	return &Network{
		seed:    seed,
		links:   make(map[linkKey]Faults),
		blocked: make(map[linkKey]struct{}),
		slow:    make(map[transport.Addr]float64),
		seq:     make(map[linkKey]uint64),
	}
}

// SetDefault replaces the fault mix applied to links without a SetLink
// override. The zero Faults restores perfect delivery.
func (n *Network) SetDefault(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = f
}

// SetLink overrides the fault mix of one directed link.
func (n *Network) SetLink(src, dst transport.Addr, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{src, dst}] = f
}

// ClearLink removes a SetLink override, restoring the default mix.
func (n *Network) ClearLink(src, dst transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, linkKey{src, dst})
}

// Partition blocks every link between the two groups, both directions —
// group a cannot reach group b and vice versa. Blocks accumulate across
// calls; Heal clears them all.
func (n *Network) Partition(a, b []transport.Addr) {
	n.PartitionOneWay(a, b)
	n.PartitionOneWay(b, a)
}

// PartitionOneWay blocks only from→to links — an asymmetric partition:
// `from` nodes cannot reach `to` nodes, while the reverse direction still
// delivers. The signature failure mode of broken NAT and half-dead links.
func (n *Network) PartitionOneWay(from, to []transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, src := range from {
		for _, dst := range to {
			n.blocked[linkKey{src, dst}] = struct{}{}
		}
	}
}

// Heal removes every partition block. Fault mixes (SetDefault, SetLink)
// and slowness multipliers are untouched.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]struct{})
}

// SlowNode scales all injected delay on links touching addr by mult —
// the per-node heterogeneity knob (a 10x slow node drags every
// conversation it is part of). mult 1 (or <= 0) restores normal speed;
// multipliers of the two ends of a link multiply.
func (n *Network) SlowNode(addr transport.Addr, mult float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if mult <= 0 || mult == 1 {
		delete(n.slow, addr)
		return
	}
	n.slow[addr] = mult
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// verdict is one call's fate under the model.
type verdict struct {
	blocked   bool
	drop      bool
	dropReply bool
	overload  bool
	duplicate bool
	delay     time.Duration
}

// decide rolls the seeded dice for the next call on src→dst and advances
// the link's counter. Stats are updated here, so a decision is an
// injection even if the caller's context dies during the delay.
func (n *Network) decide(src, dst transport.Addr) verdict {
	if src == dst {
		// A node's calls to itself never cross the network: no faults, no
		// schedule advance, no stats. Without this a lookup — which starts
		// by asking its own node — could "lose" a packet to itself.
		return verdict{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Calls++
	k := linkKey{src, dst}
	if _, bad := n.blocked[k]; bad {
		n.stats.Blocked++
		return verdict{blocked: true}
	}
	f, ok := n.links[k]
	if !ok {
		f = n.def
	}
	seq := n.seq[k]
	n.seq[k] = seq + 1

	base := linkHash(n.seed, src, dst, seq)
	var v verdict
	if f.Latency > 0 || f.Jitter > 0 {
		d := f.Latency + time.Duration(float64(f.Jitter)*u01(splitmix(base+3)))
		mult := 1.0
		if m, ok := n.slow[src]; ok {
			mult *= m
		}
		if m, ok := n.slow[dst]; ok {
			mult *= m
		}
		v.delay = time.Duration(float64(d) * mult)
		n.stats.Delayed += v.delay
	}
	switch {
	case f.Drop > 0 && u01(splitmix(base)) < f.Drop:
		v.drop = true
		n.stats.Dropped++
	case f.DropReply > 0 && u01(splitmix(base+4)) < f.DropReply:
		v.dropReply = true
		n.stats.Dropped++
	case f.Overload > 0 && u01(splitmix(base+1)) < f.Overload:
		v.overload = true
		n.stats.Overloaded++
	case f.Duplicate > 0 && u01(splitmix(base+2)) < f.Duplicate:
		v.duplicate = true
		n.stats.Duplicated++
	}
	return v
}

// linkHash folds seed, link and call counter into the 64-bit base of the
// call's fault decisions.
func linkHash(seed int64, src, dst transport.Addr, seq uint64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(seq >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(dst))
	return h.Sum64()
}

// splitmix is splitmix64: one cheap, well-mixed draw per fault dimension
// from the shared base.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// u01 maps a 64-bit draw to [0, 1).
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Wrap returns tr with this network's fault model interposed on every
// outbound call. Addr, Serve and Close delegate untouched — inbound
// requests are faulted by the sender's wrapper, not the receiver's.
func (n *Network) Wrap(tr transport.Transport) transport.Transport {
	return &endpoint{net: n, inner: tr}
}

// dupTimeout bounds the asynchronous second delivery of a duplicated
// call; the duplicate's response is discarded either way.
const dupTimeout = 2 * time.Second

type endpoint struct {
	net   *Network
	inner transport.Transport
}

func (e *endpoint) Addr() transport.Addr      { return e.inner.Addr() }
func (e *endpoint) Serve(h transport.Handler) { e.inner.Serve(h) }
func (e *endpoint) Close() error              { return e.inner.Close() }

func (e *endpoint) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	v := e.net.decide(e.inner.Addr(), addr)
	if v.delay > 0 {
		t := time.NewTimer(v.delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	switch {
	case v.blocked:
		return nil, fmt.Errorf("faultnet: partitioned %s -> %s: %w", e.inner.Addr(), addr, transport.ErrUnreachable)
	case v.drop:
		return nil, fmt.Errorf("faultnet: dropped %s -> %s: %w", e.inner.Addr(), addr, transport.ErrUnreachable)
	case v.overload:
		return nil, fmt.Errorf("faultnet: shed %s -> %s: %w", e.inner.Addr(), addr, transport.ErrOverloaded)
	}
	resp, err := e.inner.CallCtx(ctx, addr, req)
	if v.dropReply && err == nil {
		return nil, fmt.Errorf("faultnet: reply lost %s -> %s: %w", addr, e.inner.Addr(), transport.ErrUnreachable)
	}
	if v.duplicate && err == nil && req.Op != transport.OpMigrate {
		dup := *req
		go func() {
			dctx, cancel := context.WithTimeout(context.Background(), dupTimeout)
			defer cancel()
			_, _ = e.inner.CallCtx(dctx, addr, &dup)
		}()
	}
	return resp, err
}
