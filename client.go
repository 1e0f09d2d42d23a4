package oscar

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/oscar-overlay/oscar/internal/transport"
)

// Client is the public data surface of the overlay. The live
// message-passing runtime implements it: a *Node, started over TCP by
// StartNode or on the in-memory fabric by StartCluster (Cluster.Node).
// Code written against the interface runs unchanged on either transport.
// Every method takes a context whose cancellation or deadline aborts the
// operation, and failures surface as typed errors (ErrNotFound,
// ErrRoutingFailed, ErrClosed, ErrUnavailable, ErrBadRange) that callers
// test with errors.Is.
//
// Implementations are safe for concurrent use by multiple goroutines.
type Client interface {
	// Put stores value under key at the key's owner. The store keeps a
	// copy: the caller may reuse value afterwards, and may overwrite a
	// value a Get returned. (One exception: between two peers of
	// StartCluster's in-memory fabric a request travels by reference.)
	Put(ctx context.Context, key Key, value []byte) (PutResponse, error)
	// Get fetches the value under key from the key's owner. A missing key
	// is ErrNotFound (the response still carries the routing cost).
	Get(ctx context.Context, key Key) (GetResponse, error)
	// Delete removes the item under key at the key's owner. A missing key
	// is ErrNotFound (the response still carries the routing cost).
	Delete(ctx context.Context, key Key) (DeleteResponse, error)
	// Scan streams the items with keys in the clockwise arc [start, end)
	// in clockwise key order, pulling frame-bounded pages (at most 512
	// items / 4 MiB per page) from one shard owner at a time — the scan
	// never materialises more than one page per hop in memory. start > end
	// wraps around the top of the identifier circle; start == end is
	// rejected with ErrBadRange (on the Scanner, since Scan itself cannot
	// fail). Construction is lazy: no messages are sent until the first
	// Next. Iterate with Next/Item/Err or range over All.
	Scan(ctx context.Context, start, end Key, opts ...ScanOption) *Scanner
	// PutBlob chunks the stream r into fixed-size pieces stored under the
	// contiguous key sub-range [base+1, base+1+chunks) with a JSON manifest
	// at base, so a whole blob reads back as one Scan. The returned
	// manifest carries per-chunk and whole-blob checksums.
	PutBlob(ctx context.Context, base Key, r io.Reader, opts ...BlobOption) (BlobManifest, error)
	// GetBlob opens the blob stored at base for streaming reads: chunks
	// are prefetched ahead of the reader via a single Scan, verified
	// against the manifest's checksums, and reassembled in order. The
	// caller must Close the reader.
	GetBlob(ctx context.Context, base Key) (*BlobReader, error)
	// DeleteBlob removes a blob's chunks and then its manifest. A missing
	// manifest is ErrNotFound; a partially deleted blob (crash mid-delete)
	// still has its manifest and can be re-deleted.
	DeleteBlob(ctx context.Context, base Key) error
	// Lookup routes to the owner of key without touching the data layer.
	Lookup(ctx context.Context, key Key) (LookupResponse, error)
	// Info reports a snapshot of the backend's view of the overlay.
	Info(ctx context.Context) (InfoResponse, error)
	// Close releases the client. Further calls return ErrClosed.
	Close() error
}

// Typed errors returned by Client implementations. Operations wrap them, so
// match with errors.Is. Context cancellation and deadline expiry are NOT
// translated: they surface as the context's own error.
var (
	// ErrNotFound reports that the key holds no item at its owner.
	ErrNotFound = errors.New("oscar: key not found")
	// ErrRoutingFailed reports that routing exhausted every path to the
	// key's owner (dead peers, partitions, or a broken ring).
	ErrRoutingFailed = errors.New("oscar: routing failed")
	// ErrClosed reports an operation on a closed client.
	ErrClosed = errors.New("oscar: client closed")
	// ErrUnavailable reports that routing reached the owner but the data
	// operation itself failed (for example the owner crashed mid-call).
	ErrUnavailable = errors.New("oscar: peer unavailable")
	// ErrBadRange reports a degenerate scan range: start == end, which in
	// range semantics denotes the full circle — a footgun for a streaming
	// read, so scans refuse it. Split a full-circle read into two halves.
	ErrBadRange = errors.New("oscar: bad range")
	// ErrWriteConcern reports that a write (Put or Delete) reached the
	// key's owner but collected fewer acknowledgements from owner+chain
	// than the requested write concern. The write is NOT rolled back — it
	// holds at the owner and every chain member that acked, and
	// anti-entropy re-fills the rest — so the error is a durability
	// report at return time, not an undo. errors.As against
	// *WriteConcernError recovers the counts.
	ErrWriteConcern = errors.New("oscar: write concern not satisfied")
)

// WriteConcernError carries a write's acknowledgement shortfall: Acks
// members of owner+chain applied the write, Want were required. It
// matches ErrWriteConcern under errors.Is.
type WriteConcernError struct {
	// Acks is how many stores (the owner plus replica chain members)
	// acknowledged the write.
	Acks int
	// Want is the write concern the call required.
	Want int
}

func (e *WriteConcernError) Error() string {
	return fmt.Sprintf("oscar: write concern not satisfied: %d/%d acks", e.Acks, e.Want)
}

func (e *WriteConcernError) Unwrap() error { return ErrWriteConcern }

// writeConcernKey carries a per-call write concern through a context.
type writeConcernKey struct{}

// ContextWithWriteConcern returns a context that overrides the client's
// default write concern for the Put and Delete calls run under it: the
// call fails with ErrWriteConcern unless at least w members of
// owner+chain acknowledge the write. It is the per-call companion of the
// WithWriteConcern client option and NodeConfig.WriteConcern; unlike
// those, a per-call w is not clamped to the replication factor, so a w no
// chain can satisfy fails honestly instead of silently degrading.
func ContextWithWriteConcern(ctx context.Context, w int) context.Context {
	return context.WithValue(ctx, writeConcernKey{}, w)
}

// writeConcernFrom extracts the per-call write concern override, or 0 when
// the context carries none (meaning: use the client's configured default).
func writeConcernFrom(ctx context.Context) int {
	w, _ := ctx.Value(writeConcernKey{}).(int)
	return w
}

// OwnerRef identifies the peer that served an operation.
type OwnerRef struct {
	// Key is the peer's position on the identifier circle.
	Key Key
	// Addr is the peer's transport address.
	Addr string
}

// PutResponse reports a Put.
type PutResponse struct {
	// Owner is the peer now holding the item.
	Owner OwnerRef
	// Cost is the message cost of the operation: the remote routing hops
	// (the write rides the last one; a step the entry node takes itself
	// and a write or replica push to its own store are free) plus one
	// message per replica push. A write through a cached route pays one data message instead
	// of the hops.
	Cost int
	// Replaced reports whether an existing value was overwritten.
	Replaced bool
	// Acks is how many stores (the owner plus replica chain members)
	// acknowledged the write — filled whether or not the write concern
	// was met, so a caller seeing ErrWriteConcern still learns how far
	// the write got.
	Acks int
}

// GetResponse reports a Get.
type GetResponse struct {
	// Owner is the peer holding the item.
	Owner OwnerRef
	// Cost is the message cost of the operation: the remote routing hops
	// (the read rides the last one; a key the entry node owns costs
	// nothing), plus one message per replica asked when the owner could
	// not answer.
	Cost int
	// Value is the stored value.
	Value []byte
}

// DeleteResponse reports a Delete.
type DeleteResponse struct {
	// Owner is the peer that held the item.
	Owner OwnerRef
	// Cost is the message cost of the operation, counted like a Put's.
	Cost int
	// Acks is how many stores (the owner plus replica chain members)
	// acknowledged the delete.
	Acks int
}

// LookupResponse reports a Lookup.
type LookupResponse struct {
	// Owner is the peer owning the key.
	Owner OwnerRef
	// Cost is the routing message cost: the remote hops of the walk (the
	// entry node's own step is free).
	Cost int
}

// SyncStats reports anti-entropy work: the digest-driven repair passes
// that keep replica chains convergent. Every counter tracks divergence,
// never arc size — an in-sync chain member costs one digest exchange and
// moves nothing.
type SyncStats struct {
	// Rounds is the number of owner→replica digest exchanges opened.
	Rounds int
	// KeysPushed is the number of items shipped to replicas that were
	// missing them or held stale values.
	KeysPushed int
	// TombstonesPushed is the number of deletes propagated to replicas
	// that had missed them.
	TombstonesPushed int
	// Dropped is the number of stray replica keys (no owner record)
	// replicas were told to forget.
	Dropped int
}

// InfoResponse is a snapshot of the serving node's view of the overlay:
// its local state, plus the ring size it can count or estimate.
type InfoResponse struct {
	// Peers is the number of alive peers. The node reports an exact
	// successor-pointer ring walk while the gossip size estimate says the
	// ring is small enough (up to 128 peers), and the gossip estimate
	// itself beyond that — an honest estimate at any scale instead of the
	// former -1. Treat it as an estimate either way: concurrent joins and
	// crashes skew both sources.
	Peers int
	// SizeEstimate is the raw gossip-maintained ring-size estimate the node
	// blends from successor-list density and neighbour exchanges. Peers
	// derives from it.
	SizeEstimate float64
	// Replicas is the replication factor r the client writes with: every
	// item is stored at its owner and on the owner's r-1 ring successors
	// (1 = no replication).
	Replicas int
	// WriteConcern is the default number of owner+chain acknowledgements
	// the client's writes require (1 = the owner's ack alone);
	// ContextWithWriteConcern overrides it per call.
	WriteConcern int
	// Self is the serving peer.
	Self OwnerRef
	// Successor and Predecessor are the serving peer's ring pointers.
	Successor, Predecessor OwnerRef
	// OutLinks and InLinks count the serving peer's long-range links.
	OutLinks, InLinks int
	// StoredItems is the serving peer's primary item count (its local
	// shard; replica copies excluded).
	StoredItems int
	// ReplicaItems is the number of replica copies the serving peer holds
	// for its predecessors' arcs.
	ReplicaItems int
	// Tombstones is the number of deletes the serving peer remembers for
	// anti-entropy and has not yet TTL-collected.
	Tombstones int
	// AntiEntropy is the serving peer's lifetime digest-sync repair work:
	// its scheduled syncs as owner plus the read-repair passes it ran.
	AntiEntropy SyncStats
	// Durable reports the serving peer runs with a data directory (WAL +
	// compacted snapshots; see NodeConfig.DataDir / WithDataDir).
	Durable bool
	// WALBytes and WALFrames are the size and intact frame count of the
	// serving peer's write-ahead log since its last snapshot — the replay
	// cost of a crash right now (durable nodes only).
	WALBytes  int64
	WALFrames int
	// LastSnapshot is when the serving peer last wrote a compacted
	// snapshot (zero if never, or not durable).
	LastSnapshot time.Time
	// RouteCacheHits counts data operations that reached the key's owner
	// through the serving peer's route cache; RouteCacheMisses counts the
	// ones that paid the full routing walk (including invalidated stale
	// hits). Both zero when the cache is disabled.
	RouteCacheHits, RouteCacheMisses uint64
	// HotKeyCacheHits and HotKeyCacheMisses always read 0: no node caches
	// values any more, every read asks the key's owner. They stay
	// so existing readers of Info keep compiling.
	HotKeyCacheHits, HotKeyCacheMisses uint64
}

// options collects StartCluster's functional construction options.
type options struct {
	seed             int64
	keys             KeyDistribution
	degrees          DegreeDistribution
	stabilizeRounds  int
	replicas         int
	writeConcern     int
	autoMaintenance  time.Duration
	antiEntropy      time.Duration
	dataDir          string
	transportWrapper func(transport.Transport) transport.Transport
	routeCacheSize   int
	routeCacheTTL    time.Duration
}

// Option customises StartCluster. The zero configuration boots nodes on
// Gnutella-like keys with constant budgets of 16 links.
type Option func(*options)

// WithSeed seeds all randomness; runs with equal seeds are identical.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithKeys sets the peer identifier distribution.
func WithKeys(d KeyDistribution) Option { return func(o *options) { o.keys = d } }

// WithDegrees sets the per-peer link budget distribution.
func WithDegrees(d DegreeDistribution) Option { return func(o *options) { o.degrees = d } }

// WithStabilizeRounds sets how many stabilisation rounds StartCluster runs
// after boot.
func WithStabilizeRounds(n int) Option { return func(o *options) { o.stabilizeRounds = n } }

// WithReplicas sets the replication factor r (default 1 = no replication):
// every Put stores the item at its owner and pushes copies to the owner's
// r-1 immediate ring successors, Delete propagates along the same chain,
// and Get falls back through it when the owner is unreachable. Killing
// fewer than r consecutive ring members loses no data once maintenance
// has re-replicated. NodeConfig.Replicas is the per-node form.
func WithReplicas(r int) Option { return func(o *options) { o.replicas = r } }

// WithWriteConcern sets the default write concern w (default 1): a Put or
// Delete succeeds only once at least w members of owner+chain have
// acknowledged it, and returns ErrWriteConcern — with the achieved and
// required counts — otherwise. The write is never rolled back on a
// shortfall; it holds wherever it was acked and anti-entropy converges
// the rest. w is clamped to the replication factor (WithReplicas), since
// a chain cannot produce more acks than it has members; use
// ContextWithWriteConcern for an unclamped per-call requirement.
// NodeConfig.WriteConcern is the per-node form.
func WithWriteConcern(w int) Option { return func(o *options) { o.writeConcern = w } }

// WithDataDir makes cluster nodes durable: node i logs every storage
// mutation to a write-ahead log under dir/node-i and compacts it into
// snapshots, so a node restarted on the same subdirectory recovers its
// shard instead of re-filling it over the network.
func WithDataDir(dir string) Option { return func(o *options) { o.dataDir = dir } }

// WithAutoMaintenance starts the background maintenance loop on every
// node StartCluster boots: ring stabilisation every interval (jittered
// per node so rounds do not synchronise across the cluster) and a
// long-range rewiring pass every 16 stabilisations. Zero (the default)
// leaves maintenance manual: call Stabilize/StabilizeAll/RewireAll or
// Node.StartMaintenance yourself.
func WithAutoMaintenance(interval time.Duration) Option {
	return func(o *options) { o.autoMaintenance = interval }
}

// WithTransportWrapper interposes wrap on the transport endpoint of every
// node StartCluster boots — the cluster-wide form of
// NodeConfig.WrapTransport. Fault harnesses pass a
// faultnet.Network's Wrap here to subject the whole cluster to
// deterministic, seeded drop/latency/duplication/partition faults; see
// internal/faultnet. Nil (the default) leaves endpoints bare.
func WithTransportWrapper(wrap func(transport.Transport) transport.Transport) Option {
	return func(o *options) { o.transportWrapper = wrap }
}

// WithAntiEntropy starts the periodic digest sync on every node
// StartCluster boots (with WithAutoMaintenance): each node, as the owner
// of its arc, reconciles its replica chain against
// Merkle-style arc digests every interval and ships only diverged keys —
// repairing writes a replica missed, deletes that raced a crash, and stray
// copies, without re-pushing arcs. Requires WithReplicas(r > 1) to have
// any effect. Zero (the default) leaves periodic sync off; membership
// changes still trigger the same incremental repair from stabilisation.
func WithAntiEntropy(interval time.Duration) Option {
	return func(o *options) { o.antiEntropy = interval }
}

// WithRouteCache configures the per-node route cache: an LRU of
// owner+chain resolutions that lets data operations skip the routing
// walk on a hit. size counts arcs — an entry covers the owner's whole
// arc, so one walk serves every key the owner holds. Entries are
// TTL-aged, flushed on every membership change the node observes, and —
// decisively — every hit is re-validated against the ring (the write ops'
// ownership gate, one direct find_owner for reads) before being trusted,
// so a stale entry costs one wasted RPC, never a wrong answer. size 0
// keeps the default (128); size < 0 disables the cache. ttl 0 keeps the
// default (2s); ttl < 0 disables aging.
func WithRouteCache(size int, ttl time.Duration) Option {
	return func(o *options) { o.routeCacheSize, o.routeCacheTTL = size, ttl }
}

func buildOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}
