package oscar

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/oscar-overlay/oscar/internal/p2p"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/transport"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// NodeConfig configures one live peer (StartNode). The wiring algorithm
// is not tunable here: the node runs the Oscar construction of
// internal/core, the one the graph simulator runs, at its default
// settings (12 samples of 8 walk steps per median, 10-step draws, two
// choices). A lookup sends one probe per hop.
type NodeConfig struct {
	// Listen is the TCP listen address, e.g. "127.0.0.1:0" (":0" picks a
	// free port; read the bound address back with Addr).
	Listen string
	// Key is the node's position on the identifier circle. Place it where
	// the node's data lives — the overlay is order-preserving.
	Key Key
	// MaxIn and MaxOut are the link budgets ρmax (defaults 27/27): a
	// weak peer states small budgets, a strong one large — the paper's
	// heterogeneity knob.
	MaxIn, MaxOut int
	// Seed drives the node's local randomness.
	Seed int64
	// Replicas is the replication factor r (default 1 = no replication):
	// items this node owns are pushed to its r-1 immediate ring successors,
	// writes served by this node honour the owner's factor, and reads fall
	// back through the owner's chain when it is unreachable.
	Replicas int
	// WriteConcern is the default number of owner+chain acknowledgements
	// a Put or Delete issued through this node must collect to succeed
	// (default 1: the owner's ack alone). A shortfall returns
	// ErrWriteConcern with the achieved/required counts while the write
	// holds wherever it was acked. Clamped to Replicas;
	// ContextWithWriteConcern overrides it per call, unclamped.
	WriteConcern int
	// AutoMaintenance, when positive, starts the background maintenance
	// loop as soon as the node boots: ring stabilisation every interval
	// (jittered per node so cluster rounds do not synchronise) and a
	// long-range rewiring pass every autoRewireEvery stabilisations, so
	// stale links to crashed peers are eventually rebuilt too. Zero leaves
	// maintenance manual (Stabilize / Rewire / StartMaintenance).
	AutoMaintenance time.Duration
	// AntiEntropy, when positive (and Replicas > 1), adds a periodic
	// digest sync to the maintenance loop: every interval the node, as the
	// owner of its arc, compares Merkle-style arc digests with its replica
	// chain and ships only the diverged keys — repairing missed writes,
	// missed deletes and stray copies that no membership change surfaced.
	// It requires a running maintenance loop (AutoMaintenance or
	// StartMaintenance). Zero leaves periodic sync off; membership changes
	// still trigger the same incremental repair from stabilisation.
	AntiEntropy time.Duration
	// TombstoneTTL bounds how long deletes are remembered for anti-entropy
	// (default 10 minutes). Keep it comfortably above the AntiEntropy
	// interval: a tombstone must survive until every replica has applied
	// it, or a stale copy could resurrect the key.
	TombstoneTTL time.Duration
	// RouteCacheSize bounds the node's route cache in arcs: each entry
	// maps an owner's whole arc to the owner and its chain (0 = default
	// 128 arcs, negative = disabled). Cached routes are always validated
	// against the ring before use — the cache can only save hops, never
	// serve a stale owner.
	RouteCacheSize int
	// RouteCacheTTL ages route-cache entries (0 = default 2s, negative =
	// no aging).
	RouteCacheTTL time.Duration
	// PoolSize is the number of persistent connections per peer (0 =
	// transport default).
	PoolSize int
	// CallTimeout bounds each RPC when the caller's context carries no
	// deadline (0 = transport default).
	CallTimeout time.Duration
	// IdleTimeout reaps pooled connections idle this long (0 = transport
	// default).
	IdleTimeout time.Duration
	// MaxInflight is the backpressure cap (0 = transport default): at most
	// this many calls in flight per pooled connection, and at most this
	// many handlers running concurrently on the listener. Excess inbound
	// requests are shed with a typed transport overload error instead of
	// queueing without bound.
	MaxInflight int
	// TLS, when set, wraps every connection — the listener and all
	// outbound dials — in TLS with this configuration. All members of a
	// ring must agree (a TLS node cannot talk to a plaintext one). For a
	// fleet sharing one self-signed certificate, put the certificate in
	// both Certificates and RootCAs.
	TLS *tls.Config
	// DataDir, when non-empty, makes the node durable: every storage
	// mutation is appended to a write-ahead log in this directory and
	// periodically compacted into snapshots; the next StartNode with the
	// same directory recovers the state and the node rejoins with its
	// arc intact (anti-entropy then re-ships only the downtime delta).
	// Empty keeps the node memory-only. The directory must be private
	// to one node.
	DataDir string
	// Fsync selects the WAL durability policy when DataDir is set:
	// "always" (fsync before every acked write), "interval" (background
	// fsync every ~100ms — the default), or "never" (flush to the OS,
	// never fsync: a machine crash can lose everything since the last
	// snapshot, a process crash nothing).
	Fsync string
	// WrapTransport, when set, wraps the node's transport endpoint before
	// the overlay runtime attaches to it — the interposition hook fault
	// harnesses (internal/faultnet) use to inject deterministic drop,
	// latency, duplication and partitions between this node and the
	// fabric. The wrapper sees every outbound call; it must preserve the
	// transport.Transport contract. Nil leaves the endpoint bare.
	WrapTransport func(transport.Transport) transport.Transport
}

// Node is a live overlay peer: the message-passing implementation of
// Client, one peer per process (or many in one process — see
// StartCluster). A fresh node is a one-peer overlay; Join splices it into
// an existing one through any member. All methods are safe for concurrent
// use.
type Node struct {
	inner *p2p.Node
	tr    transport.Transport

	mu     sync.Mutex
	maint  *p2p.Maintenance
	closed bool
}

var _ Client = (*Node)(nil)

// StartNode boots a live peer on a TCP listener and starts serving the
// overlay protocol. Close releases the listener.
func StartNode(cfg NodeConfig) (*Node, error) {
	var topts []transport.TCPOption
	if cfg.PoolSize > 0 {
		topts = append(topts, transport.WithPoolSize(cfg.PoolSize))
	}
	if cfg.CallTimeout > 0 {
		topts = append(topts, transport.WithCallTimeout(cfg.CallTimeout))
	}
	if cfg.IdleTimeout > 0 {
		topts = append(topts, transport.WithIdleTimeout(cfg.IdleTimeout))
	}
	if cfg.MaxInflight > 0 {
		topts = append(topts, transport.WithMaxInflight(cfg.MaxInflight))
	}
	if cfg.TLS != nil {
		topts = append(topts, transport.WithTLS(cfg.TLS))
	}
	ep, err := transport.ListenTCP(cfg.Listen, topts...)
	if err != nil {
		return nil, fmt.Errorf("oscar: start node: %w", err)
	}
	n, err := startNodeOn(ep, cfg)
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	return n, nil
}

// startNodeOn wraps a live p2p node on an arbitrary transport endpoint —
// the shared path under StartNode (TCP) and StartCluster (in-memory).
// With a DataDir it first runs recovery (snapshot load + WAL replay),
// the only way it can fail besides a bad fsync spelling.
func startNodeOn(tr transport.Transport, cfg NodeConfig) (*Node, error) {
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return nil, fmt.Errorf("oscar: start node: %w", err)
	}
	if cfg.WrapTransport != nil {
		tr = cfg.WrapTransport(tr)
	}
	inner, err := p2p.NewNode(tr, p2p.Config{
		Key:            cfg.Key,
		MaxIn:          cfg.MaxIn,
		MaxOut:         cfg.MaxOut,
		Replicas:       cfg.Replicas,
		WriteConcern:   cfg.WriteConcern,
		AntiEntropy:    cfg.AntiEntropy,
		TombstoneTTL:   cfg.TombstoneTTL,
		RouteCacheSize: cfg.RouteCacheSize,
		RouteCacheTTL:  cfg.RouteCacheTTL,
		Seed:           cfg.Seed,
		DataDir:        cfg.DataDir,
		Fsync:          policy,
	})
	if err != nil {
		return nil, fmt.Errorf("oscar: start node: %w", err)
	}
	n := &Node{inner: inner, tr: tr}
	if cfg.AutoMaintenance > 0 {
		n.StartMaintenance(jitterInterval(cfg.AutoMaintenance, cfg.Seed), autoRewireEvery)
	}
	return n, nil
}

// RecoveryInfo describes what a durable node reconstructed from its data
// directory at startup. The zero value means the node runs memory-only.
type RecoveryInfo struct {
	// Enabled reports the node runs with a data directory.
	Enabled bool
	// Clean reports the previous run shut down cleanly (Close wrote a
	// final snapshot and marker); false after a crash.
	Clean bool
	// SnapshotAt is when the loaded snapshot was written (zero if the
	// node started from an empty directory).
	SnapshotAt time.Time
	// ReplayedFrames is how many WAL frames recovery replayed over the
	// snapshot — the crash window's worth of mutations.
	ReplayedFrames int
	// TornTail reports a torn final WAL frame was found and discarded
	// (the signature of a crash mid-append).
	TornTail bool
	// Items, ReplicaItems and Tombstones count the recovered state.
	Items, ReplicaItems, Tombstones int
}

// Recovery returns what this node reconstructed from its data directory
// at startup; the zero value when running without one.
func (n *Node) Recovery() RecoveryInfo {
	r := n.inner.Recovery()
	info := RecoveryInfo{
		Enabled:        r.Enabled,
		Clean:          r.Clean,
		ReplayedFrames: r.Replayed,
		TornTail:       r.TornTail,
		Items:          r.Items,
		ReplicaItems:   r.ReplicaItems,
		Tombstones:     r.Tombstones,
	}
	if r.SnapshotAt != 0 {
		info.SnapshotAt = time.Unix(0, r.SnapshotAt)
	}
	return info
}

// Snapshot forces a compacted snapshot of the node's durable state,
// truncating the write-ahead log. It is a no-op without a DataDir;
// durable nodes also snapshot automatically when the WAL grows and on
// Close, so most callers never need this.
func (n *Node) Snapshot() error {
	if n.isClosed() {
		return ErrClosed
	}
	return n.inner.Snapshot()
}

// autoRewireEvery is the rewiring cadence of auto-maintenance: one
// long-range rebuild per this many stabilisation ticks. Rewiring is the
// expensive half (remote walks), so it runs an order of magnitude less
// often than ring repair.
const autoRewireEvery = 16

// jitterInterval spreads per-node maintenance ticks over ±25% of the
// requested interval, deterministically from the node's seed, so a
// cluster's rounds de-synchronise instead of thundering together.
func jitterInterval(d time.Duration, seed int64) time.Duration {
	r := rng.Derive(seed, "maintenance-jitter")
	return time.Duration(float64(d) * (0.75 + 0.5*r.Float64()))
}

// Addr returns the node's transport address — hand it to other nodes'
// Join calls.
func (n *Node) Addr() string { return string(n.inner.Self().Addr) }

// Key returns the node's position on the identifier circle.
func (n *Node) Key() Key { return n.inner.Self().Key }

// Join enters the overlay through any existing member: route to the owner
// of this node's key, splice into the ring there, migrate the arc's items,
// and wire long-range links. The context bounds the whole sequence.
func (n *Node) Join(ctx context.Context, introducer string) error {
	if err := n.begin(ctx); err != nil {
		return err
	}
	return n.mapErr(n.inner.Join(ctx, transport.Addr(introducer)))
}

// Stabilize runs one ring-maintenance round (verify successor, re-notify,
// drop dead predecessor). StartMaintenance runs it periodically.
func (n *Node) Stabilize(ctx context.Context) {
	n.inner.Stabilize(ctx)
}

// Rewire rebuilds the node's long-range links from fresh partition
// estimates. StartMaintenance runs it periodically.
func (n *Node) Rewire(ctx context.Context) error {
	if err := n.begin(ctx); err != nil {
		return err
	}
	return n.mapErr(n.inner.Rewire(ctx))
}

// AntiEntropy runs one digest sync of this node's arc against its replica
// chain and returns what it repaired: one digest exchange per chain member,
// a key-level pull for mismatched digest buckets, and targeted pushes of
// only the diverged keys. The NodeConfig.AntiEntropy interval runs the
// same pass periodically in the background.
func (n *Node) AntiEntropy(ctx context.Context) (SyncStats, error) {
	if err := n.begin(ctx); err != nil {
		return SyncStats{}, err
	}
	st := n.inner.AntiEntropy(ctx)
	if err := ctx.Err(); err != nil {
		return SyncStats{}, err
	}
	return SyncStats{
		Rounds:           st.Rounds,
		KeysPushed:       st.KeysPushed,
		TombstonesPushed: st.TombsPushed,
		Dropped:          st.Dropped,
	}, nil
}

// StartMaintenance launches the background maintenance loop: stabilisation
// every interval and a rewiring pass every rewireEvery intervals (0
// disables rewiring). Starting twice replaces the previous loop. Close
// stops it.
func (n *Node) StartMaintenance(interval time.Duration, rewireEvery int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if n.maint != nil {
		n.maint.Stop()
	}
	n.maint = n.inner.StartMaintenance(interval, rewireEvery)
}

// StopMaintenance halts the background loop, if running.
func (n *Node) StopMaintenance() {
	n.mu.Lock()
	m := n.maint
	n.maint = nil
	n.mu.Unlock()
	if m != nil {
		m.Stop()
	}
}

// Close stops maintenance and takes the node off the network. To the rest
// of the overlay this is a crash: stabilisation at the survivors heals the
// ring around it. Without a DataDir, unreplicated items on this node's
// shard are gone; with one, Close is graceful — it writes a final
// compacted snapshot and a clean-shutdown marker, so a restart from the
// same directory recovers instantly with nothing to replay.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	m := n.maint
	n.maint = nil
	n.mu.Unlock()
	if m != nil {
		m.Stop()
	}
	return n.inner.CloseClean()
}

// begin gates an operation on the context and the closed flag.
func (n *Node) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n.isClosed() {
		return ErrClosed
	}
	return nil
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// mapErr translates runtime errors into the Client's typed errors.
// Context errors pass through untranslated.
func (n *Node) mapErr(err error) error {
	var wc *p2p.WriteConcernError
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return err
	case errors.As(err, &wc):
		return &WriteConcernError{Acks: wc.Acks, Want: wc.Want}
	case errors.Is(err, p2p.ErrNoRoute):
		return fmt.Errorf("%w: %v", ErrRoutingFailed, err)
	default:
		// Double-wrap so the runtime error's own identity survives the
		// translation: errors.Is(err, transport.ErrOverloaded) must keep
		// working through the public error, or callers cannot tell
		// backpressure from death.
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
}

func ownerRef(ref transport.PeerRef) OwnerRef {
	return OwnerRef{Key: ref.Key, Addr: string(ref.Addr)}
}

// Put implements Client.
func (n *Node) Put(ctx context.Context, key Key, value []byte) (PutResponse, error) {
	if err := n.begin(ctx); err != nil {
		return PutResponse{}, err
	}
	res, err := n.inner.PutW(ctx, key, value, writeConcernFrom(ctx))
	out := PutResponse{Owner: ownerRef(res.Owner), Cost: res.Cost, Replaced: res.Replaced, Acks: res.Acks}
	if err != nil {
		return out, n.mapErr(err)
	}
	return out, nil
}

// Get implements Client.
func (n *Node) Get(ctx context.Context, key Key) (GetResponse, error) {
	if err := n.begin(ctx); err != nil {
		return GetResponse{}, err
	}
	res, err := n.inner.Get(ctx, key)
	out := GetResponse{Owner: ownerRef(res.Owner), Cost: res.Cost, Value: res.Value}
	if err != nil {
		return out, n.mapErr(err)
	}
	if !res.Found {
		return out, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	return out, nil
}

// Delete implements Client.
func (n *Node) Delete(ctx context.Context, key Key) (DeleteResponse, error) {
	if err := n.begin(ctx); err != nil {
		return DeleteResponse{}, err
	}
	res, err := n.inner.DeleteW(ctx, key, writeConcernFrom(ctx))
	out := DeleteResponse{Owner: ownerRef(res.Owner), Cost: res.Cost, Acks: res.Acks}
	if err != nil {
		return out, n.mapErr(err)
	}
	if !res.Found {
		return out, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	return out, nil
}

// Scan implements Client: a paged streaming read over [start, end). Each
// page is one cursor-carrying scan RPC against the shard owner (or, when
// the owner dies mid-scan, a member of its replica chain — the cursor
// resumes through the chain's replica copies without loss).
func (n *Node) Scan(ctx context.Context, start, end Key, opts ...ScanOption) *Scanner {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := n.begin(ctx); err != nil {
		return failedScanner(err)
	}
	sess := n.inner.NewScanSession(start, end)
	return newScanner(ctx, start, end, opts, func(ctx context.Context, cursor Key, want int) (scanChunk, error) {
		if n.isClosed() {
			return scanChunk{}, ErrClosed
		}
		chunk, err := sess.NextPage(ctx, cursor, want)
		out := scanChunk{items: chunk.Items, done: chunk.Done, cost: chunk.Cost, peers: chunk.Peers}
		if err != nil {
			return out, n.mapErr(err)
		}
		return out, nil
	})
}

// PutBlob implements Client.
func (n *Node) PutBlob(ctx context.Context, base Key, r io.Reader, opts ...BlobOption) (BlobManifest, error) {
	return putBlob(ctx, n, base, r, opts)
}

// GetBlob implements Client.
func (n *Node) GetBlob(ctx context.Context, base Key) (*BlobReader, error) {
	return getBlob(ctx, n, base)
}

// DeleteBlob implements Client.
func (n *Node) DeleteBlob(ctx context.Context, base Key) error {
	return deleteBlob(ctx, n, base)
}

// Lookup implements Client.
func (n *Node) Lookup(ctx context.Context, key Key) (LookupResponse, error) {
	if err := n.begin(ctx); err != nil {
		return LookupResponse{}, err
	}
	owner, cost, err := n.inner.Lookup(ctx, key)
	if err != nil {
		return LookupResponse{Cost: cost}, n.mapErr(err)
	}
	return LookupResponse{Owner: ownerRef(owner), Cost: cost}, nil
}

// peerCountMaxHops bounds Info's exact membership walk: while the gossip
// estimate says the ring is at most this big, Info walks the ring for an
// exact count; beyond it (where a walk would cost O(N) RPCs) the gossip
// estimate itself is reported.
const peerCountMaxHops = 128

// Info implements Client. A live node has no global membership table, so
// Peers blends two local sources: the gossip-maintained ring-size estimate
// (successor-list density averaged over neighbour exchanges, refreshed
// every stabilisation) decides whether an exact successor-pointer walk is
// affordable; small rings get the exact count, large rings the estimate —
// never a -1 and never an O(N) walk at scale. Treat it as an estimate:
// concurrent joins and crashes skew both sources.
func (n *Node) Info(ctx context.Context) (InfoResponse, error) {
	if err := n.begin(ctx); err != nil {
		return InfoResponse{}, err
	}
	est := n.inner.SizeEstimate()
	peers := -1
	if est <= peerCountMaxHops {
		peers = n.inner.CountPeers(ctx, peerCountMaxHops)
	}
	if peers < 0 && est > 0 {
		peers = int(est + 0.5)
	}
	sync := n.inner.SyncTotals()
	caches := n.inner.CacheStats()
	resp := InfoResponse{
		Peers:        peers,
		SizeEstimate: est,
		Replicas:     n.inner.Replicas(),
		WriteConcern: n.inner.WriteConcern(),
		Self:         ownerRef(n.inner.Self()),
		Successor:    ownerRef(n.inner.Succ()),
		Predecessor:  ownerRef(n.inner.Pred()),
		OutLinks:     len(n.inner.OutLinks()),
		InLinks:      n.inner.InDegree(),
		StoredItems:  n.inner.StoredItems(),
		ReplicaItems: n.inner.ReplicaItems(),
		Tombstones:   n.inner.Tombstones(),
		AntiEntropy: SyncStats{
			Rounds:           sync.Rounds,
			KeysPushed:       sync.KeysPushed,
			TombstonesPushed: sync.TombsPushed,
			Dropped:          sync.Dropped,
		},
		RouteCacheHits:   caches.RouteHits,
		RouteCacheMisses: caches.RouteMisses,
	}
	if st, ok := n.inner.PersistStats(); ok {
		resp.Durable = true
		resp.WALBytes = st.WALBytes
		resp.WALFrames = int(st.Frames)
		if st.LastSnapshot != 0 {
			resp.LastSnapshot = time.Unix(0, st.LastSnapshot)
		}
	}
	return resp, nil
}
