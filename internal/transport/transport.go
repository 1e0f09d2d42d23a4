// Package transport provides the message fabric for the live (non-simulated)
// overlay runtime in internal/p2p: a blocking request/response CallCtx
// abstraction with two implementations — an in-memory channel fabric for
// tests and single-process clusters, and a pooled, multiplexed TCP fabric
// for real deployments.
//
// The TCP fabric keeps a small pool of persistent connections per peer
// (lazy dial, idle reaping) and multiplexes many in-flight calls over each
// connection: every frame is [4-byte length][8-byte request id][payload],
// a per-connection demux loop routes responses to their waiting callers by
// id, and a broken connection fails its in-flight calls, is evicted from
// the pool, and is replaced by a fresh dial on the next call. The payload
// is a compact binary tag/length/value format, confirmed once per
// connection by a 5-byte hello that carries its version; a connection that
// opens without it is refused. Connections can be TLS-wrapped end to end
// (WithTLS).
// Per-call deadlines come from the caller's context (with a transport
// default when the context carries none); a call that times out simply
// abandons its response slot without poisoning the shared connection.
//
// A call costs its two writes and its two wake-ups. Writing is done by the
// goroutine that has something to send: it appends its encoded frame to
// the connection's pending buffer and, if no flush is in progress, writes
// everything pending with one Write — yielding once first when other calls
// are in flight, so that a burst shares a syscall while a lone call pays
// for nothing but its own. No connection has a writer goroutine, a frame
// queue or a flush timer. The caller that flushes returns when its Write
// does, which the connection's write deadline bounds. On the server side a
// request is run by a resident worker goroutine — the one that parked
// last, a new one only when none is parked — so the stack a handler grew
// is there for the next request, a slow handler never blocks the
// connection behind it, and idle workers retire with the idle reaper.
// Encoding is one pass straight into the pooled frame buffer: each field's
// length is worked out from the counts and lengths it holds before its
// bytes are written, so no value is staged and copied a second time.
// Decoding copies every value it keeps into one allocation of exactly the
// values' size, so a stored value costs its own bytes, not its frame's,
// and read buffers are reused: a frame that fits the connection's read
// buffer is decoded in place, a larger one from the frame pool. Strings
// are interned rather than converted per frame: an op from a fixed table
// of the protocol's ops, a peer address (From, Peer, Peers, Exclude) from
// a bounded table owned by the connection's read loop. Every interned
// string is a copy, so none aliases a read buffer.
//
// Backpressure is symmetric: each client connection caps its in-flight
// calls and each endpoint caps its concurrently-running handlers (and so
// its workers), so an overloaded node sheds excess requests with a typed
// ErrOverloaded — deterministically and with a bounded goroutine count —
// instead of queueing without limit; the frames waiting behind a write
// that a stalled peer holds up are capped the same way.
//
// Delivery is at-most-once: a call on a connection that proves stale
// before the request is sent retries once on a fresh dial, but once a
// request may have reached the peer a failure surfaces as ErrUnreachable
// without retrying, so no op — idempotent or not (migrate is not) — ever
// executes twice for one call.
package transport

import (
	"context"
	"errors"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// Addr addresses one node endpoint. For the TCP fabric it is "host:port";
// for the in-memory fabric an arbitrary unique string.
type Addr string

// PeerRef pairs a peer's address with its identifier — the unit of routing
// tables and neighbour lists.
type PeerRef struct {
	Addr Addr
	Key  keyspace.Key
}

// Op enumerates the RPC operations of the overlay protocol.
type Op string

// The overlay protocol operations.
const (
	OpPing      Op = "ping"       // liveness probe
	OpInfo      Op = "info"       // peer's key, caps, degrees
	OpNotify    Op = "notify"     // Chord notify: candidate predecessor
	OpNeighbors Op = "neighbors"  // all neighbour refs; the walker filters by range
	OpLink      Op = "link"       // request a long-range in-link
	OpUnlink    Op = "unlink"     // release a long-range in-link
	OpFindOwner Op = "find_owner" // iterative routing step: best next hop
	OpPut       Op = "put"        // store an item (owner only)
	OpGet       Op = "get"        // fetch an item (owner or replica)
	OpDelete    Op = "delete"     // remove an item (owner only)
	// OpScan is one page of a streaming arc scan: the responder returns up
	// to a bounded page of live items in the requested range from its
	// merged view (own shard plus replica copies, tombstones honoured),
	// clockwise from Range.Start — the cursor. More asks the requester to
	// call the same peer again, from one past the page's last key, before
	// hopping to the successor (Peer). Non-destructive, unlike migrate.
	OpScan    Op = "scan"    // one cursor-paged scan step over the local merged view
	OpMigrate Op = "migrate" // hand over items in a range (join)

	// Replication protocol: the owner of an arc pushes copies of its items
	// directly to the nodes on its successor list — no routing involved.
	// Replication responses carry an ack count (Response.Acks) so writers
	// can enforce a write concern instead of trusting silence.
	OpSuccList     Op = "succ_list"     // successor-list snapshot (Peer carries the predecessor)
	OpReplicate    Op = "replicate"     // owner→replica push of copies, tombstones and drops
	OpReplicateDel Op = "replicate_del" // owner→replica push of a delete

	// Anti-entropy protocol: the owner of an arc reconciles its replicas
	// against a Merkle-style digest instead of re-shipping the arc. One
	// digest exchange detects divergence in O(1) traffic; one pull fetches
	// the per-key states of the mismatched buckets; targeted replicate
	// pushes carry only the difference.
	OpDigest   Op = "digest"    // replica's leaf vector for an owner's arc
	OpSyncPull Op = "sync_pull" // replica's per-key states in given buckets

	// Read-repair protocol: a reader that was served by a replica after
	// the owner answered without any record of the key nudges the owner
	// to digest-pull the divergence back from that replica (and then
	// re-sync its chain). The nudge is cheap and asynchronous; the owner
	// deduplicates concurrent nudges.
	OpReadRepair Op = "read_repair" // reader→owner: pull your arc's divergence from From
)

// Request is the wire request. One struct covers all ops; unused fields are
// zero and stay off the wire.
type Request struct {
	Op   Op
	From PeerRef

	Key   keyspace.Key
	Range keyspace.Range
	Value []byte
	Limit int
	// Items carries item copies for replicate pushes (write-time copies and
	// anti-entropy repair batches alike).
	Items []storage.Item
	// Tombs carries deletes a replica must apply: each key is cleared and
	// marked deleted (replicate pushes, arc migrations).
	Tombs []storage.Tombstone
	// Drop lists keys a replica must forget entirely — stray state the arc
	// owner has no record of (no copy, no tombstone).
	Drop []keyspace.Key
	// Depth is the digest tree depth for digest / sync_pull.
	Depth int
	// Buckets selects the digest leaf buckets a sync_pull asks about.
	Buckets []int
	// Values asks a sync_pull to return the item values and tombstones of
	// the selected buckets alongside the per-key states, so a read-repair
	// pull can diff and heal in one RPC.
	Values bool
	// States carries the per-key state a recovered joiner already holds
	// of the arc it is claiming (migrate): the responder filters items
	// the joiner proved it has, shipping only the downtime delta.
	States []antientropy.State
	// SizeEst piggybacks the sender's ring-size estimate on stabilisation
	// traffic (succ_list); receivers fold it into their own — the gossip
	// half of membership estimation. 0 means "no estimate yet".
	SizeEst float64
	// Exclude lists peers the query has discovered dead (or routeless);
	// find_owner skips them — the live analogue of the simulator's
	// per-query known-dead set.
	Exclude []Addr
	// Carry, on a find_owner, names a data op (get, put, delete or scan)
	// whose arguments ride in this request's own fields: a responder that
	// answers Found runs it as if it had arrived on its own and returns
	// the outcome in Response.Result, so the walk's last hop is also the
	// data RPC. A responder that is not the owner ignores it.
	Carry Op
}

// Response is the wire response.
type Response struct {
	OK  bool
	Err string

	Peer  PeerRef
	Peers []PeerRef
	Value []byte
	Found bool
	// Deleted reports, on a negative get, that the responder holds a
	// tombstone for the key: the miss is an authoritative delete, not a
	// hole a fallback read should try to fill from the replica chain.
	Deleted bool
	// Acks is the number of stores that applied a write-path op (put,
	// delete, replicate, replicate_del): 1 from the responder itself.
	// Writers sum it across the owner and the chain to enforce a write
	// concern.
	Acks  int
	Items []storage.Item
	// More reports that a migrate or scan response was truncated to bound
	// the frame size and the requester must call again for the rest of the
	// range (migrate extracts, so repeated calls progress; scan resumes
	// one past the page's last key).
	More bool
	// Tombs carries the tombstones of a migrated arc (migrate): the delete
	// knowledge travels with the items it covers.
	Tombs []storage.Tombstone
	// Digest is the responder's digest-tree leaf vector for the requested
	// arc (digest).
	Digest []uint64
	// States is the responder's per-key sync states for the requested
	// buckets (sync_pull).
	States []antientropy.State
	// SizeEst returns the responder's ring-size estimate on succ_list.
	SizeEst float64
	MaxIn   int
	InDeg   int
	// Result, on a find_owner that answered Found, is the response of the
	// op the request carried (Request.Carry), executed at the responder.
	// Nil means the op did not run here — no op was carried, or the
	// responder predates carrying — and the requester sends it directly.
	Result *Response
	// Arc, on a find_owner that answered Found, is the owner's arc
	// (pred, owner] as the clockwise range {pred.Key+1, owner.Key+1}: the
	// requester may route every key of it to this owner. The zero value —
	// a full range — means the owner sent no arc: it has no distinct
	// predecessor to bound one, or it predates the field.
	Arc keyspace.Range
}

// Handler processes one incoming request. Handlers run on transport
// goroutines (the TCP fabric's resident workers) and may be invoked
// concurrently.
type Handler func(*Request) *Response

// Transport is one node's endpoint on the fabric.
type Transport interface {
	// Addr returns the endpoint's address.
	Addr() Addr
	// CallCtx sends a request to a remote endpoint and waits for its
	// response. A transport-level failure (dead peer, closed endpoint)
	// returns an error — the live-network analogue of probing a stale
	// link. The context's deadline bounds the round trip (without one the
	// transport's default per-call timeout applies) and its cancellation
	// aborts the wait. Many CallCtx invocations may be in flight
	// concurrently; the TCP fabric multiplexes them over shared pooled
	// connections.
	CallCtx(ctx context.Context, addr Addr, req *Request) (*Response, error)
	// Serve installs the handler for incoming requests. It must be called
	// exactly once before the first call arrives.
	Serve(h Handler)
	// Close tears the endpoint down; subsequent calls to it fail.
	Close() error
}

// ErrUnreachable reports a dead or unknown endpoint.
var ErrUnreachable = errors.New("transport: peer unreachable")

// ErrOverloaded reports backpressure, not death: the peer (or this
// client's own in-flight cap) is saturated and the request was shed
// before execution. Unlike ErrUnreachable the peer is alive — callers
// should back off or retry elsewhere rather than declare it dead.
var ErrOverloaded = errors.New("transport: peer overloaded")

// FanoutResult is one peer's outcome from a fan-out: the same request
// sent to several peers in parallel.
type FanoutResult struct {
	Addr Addr
	Resp *Response
	Err  error
}

// OK reports whether the peer answered and accepted the request.
func (r FanoutResult) OK() bool { return r.Err == nil && r.Resp != nil && r.Resp.OK }
