package oscar

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/routecache"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// Client returns the context-first Client facade over this overlay. The
// facade shares the overlay's state: operations through either surface see
// each other's writes, and the overlay's mutex makes them safe to mix from
// multiple goroutines. The simulator executes synchronously, so contexts
// are honoured at operation entry (a cancelled context aborts the call
// before any routing happens).
func (o *Overlay) Client() Client {
	return o.ReplicatedClient(1)
}

// ReplicatedClient returns the Client facade with the given replication
// factor: every Put places copies on the owner's replicas-1 ring
// successors, Delete clears the same chain, and Get falls back through it
// — the same durability contract the live runtime implements under
// WithReplicas. replicas < 1 is treated as 1.
func (o *Overlay) ReplicatedClient(replicas int) Client {
	return o.clientWith(replicas, 1)
}

// clientWith builds the facade with a replication factor and a default
// write concern (the same normalisation NodeConfig applies: at least 1,
// at most replicas).
func (o *Overlay) clientWith(replicas, writeConcern int) *simClient {
	if replicas < 1 {
		replicas = 1
	}
	if writeConcern < 1 {
		writeConcern = 1
	}
	if writeConcern > replicas {
		writeConcern = replicas
	}
	c := &simClient{ov: o, replicas: replicas, writeConcern: writeConcern}
	c.setCaches(0, 0)
	return c
}

// setCaches (re)builds the client's route cache with the same
// normalisation the live runtime applies: size 0 means the 128-entry
// default and negative disables; TTL 0 means the 2-second default and
// negative disables aging.
func (c *simClient) setCaches(routeSize int, ttl time.Duration) {
	if routeSize == 0 {
		routeSize = 128
	}
	if ttl == 0 {
		ttl = 2 * time.Second
	}
	c.routes = routecache.New[NodeID](routeSize, ttl)
}

// simClient adapts the simulator Overlay to the Client interface. Each
// operation runs under the overlay's mutex, so routing and the data access
// are one atomic step — the in-process analogue of the owner executing the
// data op locally.
type simClient struct {
	ov           *Overlay
	replicas     int
	writeConcern int
	closed       atomic.Bool

	// routes caches key → owner resolutions — the simulator mirror of the
	// live runtime's route cache, so the three-backend conformance table
	// exercises one contract. Every hit is validated against the sim graph
	// (the owner must still own the key), never trusted blind.
	routes *routecache.Cache[NodeID]

	routeHits, routeMisses atomic.Uint64
}

// concern resolves the write concern for one call: the context override
// when present, the client default otherwise.
func (c *simClient) concern(ctx context.Context) int {
	if w := writeConcernFrom(ctx); w > 0 {
		return w
	}
	return c.writeConcern
}

// begin gates every operation on the context and the closed flag.
func (c *simClient) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// ownerLocked builds the backend-neutral owner ref for a simulator peer.
// Callers hold c.ov.mu.
func (c *simClient) ownerLocked(id NodeID) OwnerRef {
	return OwnerRef{ID: id, Key: c.ov.sim.Net().Node(id).Key}
}

// simOwnsLocked reports whether peer id currently owns key on the sim
// graph: alive, with a defined predecessor, and key on the clockwise arc
// (pred, id]. This is the validation gate every route-cache hit passes —
// the sim analogue of the live runtime's ownership check at the owner.
// Callers hold o.mu.
func (o *Overlay) simOwnsLocked(id NodeID, key Key) bool {
	net := o.sim.Net()
	node := net.Node(id)
	if !node.Alive {
		return false
	}
	if node.Pred == id {
		return true // one-peer ring owns the whole circle
	}
	if node.Pred == graph.NoNode {
		return false // arc undefined: force a fresh lookup
	}
	return key.BetweenIncl(net.Node(node.Pred).Key, node.Key)
}

// resolveLocked finds the owner of key, preferring a validated route-cache
// hit: a cached owner is trusted only while the sim graph still shows it
// alive and owning the key's arc (cost 1, the validation probe). Anything
// else falls back to a routed lookup and refreshes the cache, so a stale
// entry costs one wasted check, never a wrong answer. Callers hold o.mu.
func (c *simClient) resolveLocked(key Key) (NodeID, int, error) {
	o := c.ov
	if id, ok := c.routes.Get(key); ok {
		if o.simOwnsLocked(id, key) {
			c.routeHits.Add(1)
			return id, 1, nil
		}
		c.routes.Invalidate(key)
	}
	if c.routes != nil {
		c.routeMisses.Add(1)
	}
	route := o.lookupLocked(key)
	if !route.Found {
		return 0, route.Cost(), fmt.Errorf("routing failed")
	}
	c.routes.Put(key, route.Owner)
	return route.Owner, route.Cost(), nil
}

func (c *simClient) Put(ctx context.Context, key Key, value []byte) (PutResponse, error) {
	if err := c.begin(ctx); err != nil {
		return PutResponse{}, err
	}
	o := c.ov
	o.mu.Lock()
	defer o.mu.Unlock()
	owner, cost, err := c.resolveLocked(key)
	if err != nil {
		return PutResponse{Cost: cost}, fmt.Errorf("%w: put %v", ErrRoutingFailed, key)
	}
	// The overlay keeps a copy, as a live node does: the caller may reuse
	// its buffer.
	res := o.putAtLocked(owner, cost, key, bytes.Clone(value), c.replicas)
	out := PutResponse{Owner: c.ownerLocked(res.Owner), Cost: res.Cost, Replaced: res.Replaced, Acks: res.Acks}
	if w := c.concern(ctx); res.Acks < w {
		// The write holds wherever it was placed; the shortfall is
		// reported, mirroring the live runtime's contract.
		return out, &WriteConcernError{Acks: res.Acks, Want: w}
	}
	return out, nil
}

func (c *simClient) Get(ctx context.Context, key Key) (GetResponse, error) {
	if err := c.begin(ctx); err != nil {
		return GetResponse{}, err
	}
	o := c.ov
	o.mu.Lock()
	defer o.mu.Unlock()
	owner, cost, err := c.resolveLocked(key)
	if err != nil {
		return GetResponse{Cost: cost}, fmt.Errorf("%w: get %v", ErrRoutingFailed, key)
	}
	servedBy, value, found, cost := o.getAtLocked(owner, cost, key, c.replicas)
	out := GetResponse{Owner: c.ownerLocked(servedBy), Cost: cost}
	if !found {
		return out, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	out.Value = bytes.Clone(value) // the caller's to scribble on
	return out, nil
}

func (c *simClient) Delete(ctx context.Context, key Key) (DeleteResponse, error) {
	if err := c.begin(ctx); err != nil {
		return DeleteResponse{}, err
	}
	o := c.ov
	o.mu.Lock()
	defer o.mu.Unlock()
	owner, cost, err := c.resolveLocked(key)
	if err != nil {
		return DeleteResponse{Cost: cost}, fmt.Errorf("%w: delete %v", ErrRoutingFailed, key)
	}
	res := o.deleteAtLocked(owner, cost, key, c.replicas)
	out := DeleteResponse{Owner: c.ownerLocked(res.Owner), Cost: res.Cost, Acks: res.Acks}
	if w := c.concern(ctx); res.Acks < w {
		return out, &WriteConcernError{Acks: res.Acks, Want: w}
	}
	if !res.Existed {
		return out, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	return out, nil
}

// simScanSession is the simulator's shard walker behind Scan: one merged
// page per call under the overlay mutex, so a long scan interleaves with
// writes and churn between pages exactly like the live backend.
type simScanSession struct {
	c  *simClient
	rg Range

	cur     NodeID
	have    bool
	counted bool
}

func (s *simScanSession) nextPage(cursor Key, want int) (scanChunk, error) {
	o := s.c.ov
	o.mu.Lock()
	defer o.mu.Unlock()
	var out scanChunk
	rem := Range{Start: cursor, End: s.rg.End}
	net := o.sim.Net()
	maxItems := storage.PageMaxItems
	if want > 0 && want < maxItems {
		maxItems = want
	}
	for hops := 0; hops <= net.Len()+1; hops++ {
		// A shard owner that died between pages: re-route the cursor. The
		// new owner's replica store carries the dead peer's arc, so the
		// resumed page loses nothing (the sim analogue of chain fallback).
		if s.have && !net.Node(s.cur).Alive {
			s.have = false
		}
		if !s.have {
			owner, cost, err := s.c.resolveLocked(cursor)
			out.cost += cost
			if err != nil {
				return out, fmt.Errorf("%w: scan at %v", ErrRoutingFailed, cursor)
			}
			s.cur, s.have, s.counted = owner, true, false
		}
		node := net.Node(s.cur)
		// Clip the merged view to the arc this peer serves
		// authoritatively — keys clockwise up to its own position — so
		// replica copies of live predecessors across the circle never
		// leak into the page and skip the shards in between (the same
		// clip the live OpScan handler applies).
		clipped := rem
		selfEnd := node.Key + 1
		var items []Item
		more := false
		if rem.Start != selfEnd {
			if rem.Start.Distance(selfEnd) < rem.Start.Distance(rem.End) {
				clipped.End = selfEnd
			}
			items, more = storage.ScanPageMerged(o.storeFor(s.cur), o.replStoreFor(s.cur), clipped, maxItems, storage.PageMaxBytes)
		}
		out.cost++
		if !s.counted {
			out.peers++
			s.counted = true
		}
		out.items = items
		if more {
			return out, nil
		}
		if node.Succ == s.cur || !rem.Contains(node.Key) {
			out.done = true
			return out, nil
		}
		s.cur, s.counted = node.Succ, false
		if len(items) > 0 {
			return out, nil
		}
		// Empty shard: keep walking within this page call.
	}
	return out, fmt.Errorf("oscar: scan did not terminate")
}

// Scan implements Client over the simulator: the same paged walk as the
// live backend, against the overlay's in-process shards.
func (c *simClient) Scan(ctx context.Context, start, end Key, opts ...ScanOption) *Scanner {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.begin(ctx); err != nil {
		return failedScanner(err)
	}
	sess := &simScanSession{c: c, rg: Range{Start: start, End: end}}
	return newScanner(ctx, start, end, opts, func(ctx context.Context, cursor Key, want int) (scanChunk, error) {
		if c.closed.Load() {
			return scanChunk{}, ErrClosed
		}
		return sess.nextPage(cursor, want)
	})
}

// PutBlob implements Client.
func (c *simClient) PutBlob(ctx context.Context, base Key, r io.Reader, opts ...BlobOption) (BlobManifest, error) {
	return putBlob(ctx, c, base, r, opts)
}

// GetBlob implements Client.
func (c *simClient) GetBlob(ctx context.Context, base Key) (*BlobReader, error) {
	return getBlob(ctx, c, base)
}

// DeleteBlob implements Client.
func (c *simClient) DeleteBlob(ctx context.Context, base Key) error {
	return deleteBlob(ctx, c, base)
}

func (c *simClient) Lookup(ctx context.Context, key Key) (LookupResponse, error) {
	if err := c.begin(ctx); err != nil {
		return LookupResponse{}, err
	}
	o := c.ov
	o.mu.Lock()
	defer o.mu.Unlock()
	route := o.lookupLocked(key)
	if !route.Found {
		return LookupResponse{Cost: route.Cost()}, fmt.Errorf("%w: lookup %v", ErrRoutingFailed, key)
	}
	return LookupResponse{Owner: c.ownerLocked(route.Owner), Cost: route.Cost()}, nil
}

func (c *simClient) Info(ctx context.Context) (InfoResponse, error) {
	if err := c.begin(ctx); err != nil {
		return InfoResponse{}, err
	}
	o := c.ov
	size := o.Size()
	o.mu.Lock()
	sync := o.syncStats
	o.mu.Unlock()
	return InfoResponse{
		Backend:      "simulator",
		Peers:        size,
		SizeEstimate: float64(size),
		Replicas:     c.replicas,
		WriteConcern: c.writeConcern,
		StoredItems:  o.StoredItems(),
		Tombstones:   o.Tombstones(),
		AntiEntropy:  sync,

		RouteCacheHits:   c.routeHits.Load(),
		RouteCacheMisses: c.routeMisses.Load(),
	}, nil
}

// Close marks the client closed. The underlying Overlay stays usable
// through its own methods (it holds no external resources).
func (c *simClient) Close() error {
	c.closed.Store(true)
	return nil
}
