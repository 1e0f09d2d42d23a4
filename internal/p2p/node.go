// Package p2p is the live (message-passing) implementation of the Oscar
// node: the same algorithms as the sequential simulator — Chord-style ring
// maintenance, restricted-walk median sampling, partition-based long-range
// link acquisition with in-degree admission — expressed as RPCs over a
// transport.Transport, so a cluster can run on in-memory channels or real
// TCP sockets.
//
// The simulator (internal/sim) is the tool for 10000-peer experiments; this
// package is the deployment path and the proof that the algorithms need
// nothing beyond per-node local state plus the protocol ops.
package p2p

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/resident"
	"github.com/oscar-overlay/oscar/internal/routecache"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// Config parameterises one node. The wiring is not settable: Rewire runs
// the Oscar construction (core.Wire) at core.DefaultConfig, with the walk
// lengths of core.SampleSteps and core.PickSteps, and link candidates
// always take the power-of-two choice. Nor is the route cache
// (routeCacheArcs arcs aged by routeCacheTTL), and the tombstone TTL is
// derived from AntiEntropy (tombstoneTTL).
type Config struct {
	// Key is the node's position on the identifier circle.
	Key keyspace.Key
	// MaxIn and MaxOut are the link budgets (ρmax).
	MaxIn, MaxOut int
	// Replicas is the replication factor r: every item is stored at its
	// owner and pushed to the owner's r-1 immediate ring successors, so a
	// crash loses routing entries but no data as long as fewer than r
	// consecutive ring members fail together. Default 1 (no replication).
	Replicas int
	// WriteConcern is the default number of acknowledgements — the owner
	// plus chain members — a Put or Delete must collect before it
	// succeeds; with fewer the write still lands wherever it was acked
	// but the call returns ErrWriteConcern carrying the shortfall.
	// Default 1 (the owner's ack alone, the fire-and-forget-replica
	// behaviour); values above Replicas are clamped to it, since a chain
	// can never produce more acks than it has members.
	WriteConcern int
	// AntiEntropy, when positive, is the cadence of the periodic digest
	// sync: the maintenance loop runs an AntiEntropy pass against the
	// replica chain every interval, repairing divergence that no membership
	// change surfaced (a replica that missed a write push, a delete that
	// raced a crash). Zero leaves periodic sync off; membership-change
	// repair in Stabilize still runs. Deletes are remembered for ten
	// intervals, and at least ten minutes.
	AntiEntropy time.Duration
	// Seed drives the node's local randomness.
	Seed int64
	// DataDir, when non-empty, makes the node durable: every storage
	// mutation is written to a WAL in this directory, periodically
	// compacted into snapshots, and replayed on the next start so the
	// node rejoins with its arc intact. Empty keeps the seed behaviour
	// (memory only).
	DataDir string
	// Fsync is the WAL fsync policy (wal.PolicyAlways / Interval /
	// Never; Interval fsyncs every wal.DefaultFsyncInterval). Only
	// meaningful with DataDir set.
	Fsync wal.Policy
}

func (c *Config) fillDefaults() {
	if c.MaxIn == 0 {
		c.MaxIn = 27
	}
	if c.MaxOut == 0 {
		c.MaxOut = 27
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.WriteConcern < 1 {
		c.WriteConcern = 1
	}
	if c.WriteConcern > c.Replicas {
		c.WriteConcern = c.Replicas
	}
}

// tombstoneTTL is how long a delete is remembered for anti-entropy: ten
// minutes, or ten sync intervals when that is longer. A tombstone must
// outlive every pass that could still meet a stale copy of its key, or
// that copy would resurrect the key.
func (c *Config) tombstoneTTL() time.Duration {
	return max(minTombstoneTTL, 10*c.AntiEntropy)
}

const (
	// minTombstoneTTL is the floor of tombstoneTTL.
	minTombstoneTTL = 10 * time.Minute
	// routeCacheArcs bounds the per-node LRU of owner+chain resolutions,
	// counted in arcs: an entry covers the owner's whole arc (pred, owner],
	// so a hit on any key of it lets data ops skip the routing walk. Every
	// hit is re-validated against the ring (ownership gates for writes, a
	// direct find_owner for reads) before being trusted, so a stale entry
	// costs one wasted RPC, never a wrong answer.
	routeCacheArcs = 128
	// routeCacheTTL ages route-cache entries.
	routeCacheTTL = 2 * time.Second
)

// minSuccList is the floor on the successor-list length: even without
// replication the ring keeps a few spare successors so repair after a
// crashed successor walks the list instead of guessing from long-range
// links.
const minSuccList = 4

// lockedRand guards a rand.Rand so the maintenance loop, parallel RPC
// fanouts, and user-facing calls can draw concurrently (rand.Rand itself is
// not goroutine-safe).
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

func (l *lockedRand) Intn(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Intn(n)
}

// Split draws a seed and returns a new stream of its own for one
// goroutine, so concurrent draws do not interleave on the shared one.
func (l *lockedRand) Split() *rand.Rand {
	l.mu.Lock()
	defer l.mu.Unlock()
	return rand.New(rand.NewSource(l.r.Int63()))
}

// Node is one live overlay peer.
type Node struct {
	cfg  Config
	tr   transport.Transport
	self transport.PeerRef

	mu sync.Mutex
	// succs is the successor list in ring order: entry 0 is the immediate
	// successor. An empty list means the node is (or believes it is) a
	// one-peer ring. Stabilize refreshes the tail from the live successor.
	succs []transport.PeerRef
	// succsWrapped records that the last list refresh stopped because the
	// ring wrapped back to this node — the list provably covers the whole
	// ring, so its length is an exact peer count. A short list without
	// this flag (fresh join, post-crash fallback) proves nothing.
	succsWrapped bool
	// succsFreshRounds counts consecutive Stabilize refreshes since the
	// list was last spliced provisionally (join, notify, crash repair).
	// Each refresh re-verifies one more tail entry: the head is ping-
	// verified directly and entry j is head's entry j-1 from the previous
	// round, so after len(succs) rounds the whole list is known to be
	// consecutive ring members. Only then does its density feed the
	// ring-size gossip — a provisional tail predates peers that joined in
	// between, spans far too much of the circle, and the resulting gross
	// underestimate is exactly the outlier a harmonic mean is most
	// sensitive to.
	succsFreshRounds int
	pred             transport.PeerRef
	// arcFloor remembers the last real predecessor's key even after the
	// slot is cleared by a failure (pred = self). While the slot is
	// cleared, the routing layer claims the whole counterclockwise circle
	// (findOwnerLocked — lookups must terminate somewhere); the write
	// gate must not inherit that claim wholesale, or every write routed
	// through the node during the window is accepted, acked, and
	// stranded once the ring heals. ownsLocked keeps accepting the
	// node's own arc down to this floor; inheriting the dead
	// predecessor's arc for writes waits until the next-live
	// predecessor's notify moves the floor.
	arcFloor     keyspace.Key
	haveArcFloor bool
	out          []transport.PeerRef
	in           map[transport.Addr]keyspace.Key
	// store holds the arc the node owns: (pred, self].
	store storage.Store
	// replStore holds copies of predecessors' arcs pushed by their owners;
	// stabilisation promotes entries into store when the node inherits
	// their arc (its predecessor range expanded after a crash).
	replStore storage.Store
	// lastChain snapshots the replica targets of the previous stabilisation
	// round; a difference triggers re-replication of the local arc.
	lastChain []transport.Addr
	// sizeEst is the gossip-maintained ring-size estimate: a blend of the
	// node's own successor-list density estimate and its neighbours'
	// estimates, exchanged on succ_list traffic. 0 until the first
	// stabilisation.
	sizeEst float64
	// lastGCPred and gcTick schedule the replica-collection walk: a
	// predecessor change (or the periodic fallback reaching zero) makes
	// the next stabilisation run it.
	lastGCPred transport.Addr
	gcTick     int
	// stats accumulates anti-entropy work over the node's lifetime.
	stats SyncStats
	// repairing dedupes read-repair: a burst of fallback reads against a
	// stale owner triggers one bounded repair pass, not one per read.
	// repairedAt additionally rate-limits passes (readRepairCooldown), so
	// an unclosable divergence cannot turn reads into a digest storm.
	repairing  bool
	repairedAt time.Time
	down       bool
	// lastJoinItems / lastJoinTombs count what the most recent Join
	// actually pulled over the wire (see JoinShipped).
	lastJoinItems, lastJoinTombs int
	// joinDirty, while non-nil, records every key written (put or
	// deleted) since this node's own Join spliced it into the ring.
	// Migrate chunks still in flight were extracted before those writes
	// landed, so Join filters them against this set — a stale migrated
	// copy must not overwrite a value the new owner already acked, and a
	// migrated item must not resurrect a key it already deleted.
	joinDirty map[keyspace.Key]struct{}

	// eng is the durable WAL engine (nil without Config.DataDir);
	// recovery describes what it reconstructed at startup.
	eng      *wal.Engine
	recovery RecoveryInfo

	// routes caches owner+chain resolutions by the owner's arc so data ops
	// on any key of it skip the routing walk. It is a freshness cache
	// only — every use is validated against the ring (see resolveRead /
	// dataOp) — and is flushed on membership change. nil when disabled;
	// routecache methods are nil-safe.
	routes *routecache.Cache[routeEntry]
	// Cache effectiveness counters, surfaced through CacheStats. Atomics:
	// they are bumped on the read path without n.mu.
	routeHits, routeMisses atomic.Uint64

	rnd *lockedRand

	// legs run the fan-outs' handed-off legs (see parallel).
	legs *resident.Pool[legJob]
}

// routeEntry is one cached owner resolution: the peer that owned arc
// when it was cached, plus its replica chain for read fallback. arc is
// what the entry is cached under — the owner's arc when its Found answer
// carried one, else the one key that was resolved — so a refresh on a hit
// keeps it.
type routeEntry struct {
	owner transport.PeerRef
	chain []transport.PeerRef
	arc   keyspace.Range
}

// CacheStats is a snapshot of the node's route-cache effectiveness
// counters: hits are data ops that reached the owner through a cached
// resolution, misses are the ops that paid the full walk.
type CacheStats struct {
	RouteHits, RouteMisses uint64
}

// CacheStats returns the accumulated cache hit/miss counters.
func (n *Node) CacheStats() CacheStats {
	return CacheStats{
		RouteHits:   n.routeHits.Load(),
		RouteMisses: n.routeMisses.Load(),
	}
}

// NewNode creates a node on the given transport and starts serving its
// protocol handler. The node starts as a one-peer ring (succ = pred = self);
// call Join to enter an existing overlay. With Config.DataDir set it
// first recovers durable state from disk (snapshot load + WAL tail
// replay) — the only way NewNode can fail.
func NewNode(tr transport.Transport, cfg Config) (*Node, error) {
	cfg.fillDefaults()
	n := &Node{
		cfg:  cfg,
		tr:   tr,
		self: transport.PeerRef{Addr: tr.Addr(), Key: cfg.Key},
		in:   make(map[transport.Addr]keyspace.Key),
		rnd:  &lockedRand{r: rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Key)))},
		legs: resident.New[legJob](maxParkedLegs),
	}
	n.routes = routecache.New[routeEntry](routeCacheArcs, routeCacheTTL)
	n.pred = n.self
	if cfg.DataDir != "" {
		// Recovery runs before anything serves: the stores NewNode
		// continues with are the recovered ones, and the WAL sinks are
		// attached before the first reachable mutation.
		if err := n.openEngine(); err != nil {
			return nil, err
		}
	}
	// The primary store carries the incrementally-maintained arc digest:
	// the store holds exactly the owned arc, so its leaf vector is the
	// owner-side summary every sync round starts from. After recovery
	// this re-seeds the tree from the recovered contents.
	n.store.EnableDigest(antientropy.DefaultDepth)
	tr.Serve(n.handle)
	return n, nil
}

// Self returns the node's own peer reference.
func (n *Node) Self() transport.PeerRef { return n.self }

// Replicas returns the node's replication factor r.
func (n *Node) Replicas() int { return n.cfg.Replicas }

// WriteConcern returns the node's default write concern w.
func (n *Node) WriteConcern() int { return n.cfg.WriteConcern }

// succListLen is the target successor-list length: long enough to resolve
// the whole replica chain, and never shorter than the repair floor.
func (n *Node) succListLen() int {
	if n.cfg.Replicas > minSuccList {
		return n.cfg.Replicas
	}
	return minSuccList
}

// succLocked returns the immediate successor (self on a one-peer ring).
func (n *Node) succLocked() transport.PeerRef {
	if len(n.succs) == 0 {
		return n.self
	}
	return n.succs[0]
}

// setSuccLocked installs p as the immediate successor. The previous
// entries stay behind it as provisional tail (ring order is preserved: a
// new closer successor precedes the old one) until the next Stabilize
// refreshes the list from p itself.
func (n *Node) setSuccLocked(p transport.PeerRef) {
	if n.succLocked().Addr != p.Addr {
		// The clockwise neighbourhood changed: every cached resolution —
		// ours or an arc downstream — is suspect. Flushing is cheap and
		// only costs freshness; validation covers correctness either way.
		n.routes.Flush()
	}
	n.succsWrapped = false // provisional list: wrap knowledge is stale
	n.succsFreshRounds = 0 // and its density must not feed the gossip
	if p.Addr == "" || p.Addr == n.self.Addr {
		n.succs = nil
		return
	}
	list := make([]transport.PeerRef, 0, n.succListLen())
	list = append(list, p)
	for _, q := range n.succs {
		if len(list) >= n.succListLen() {
			break
		}
		if q.Addr != p.Addr && q.Addr != n.self.Addr {
			list = append(list, q)
		}
	}
	n.succs = list
}

// replicaTargetsLocked returns the peers that must hold copies of this
// node's arc: the first r-1 successor-list entries.
func (n *Node) replicaTargetsLocked() []transport.PeerRef {
	want := n.cfg.Replicas - 1
	if want <= 0 {
		return nil
	}
	if want > len(n.succs) {
		want = len(n.succs)
	}
	return append([]transport.PeerRef(nil), n.succs[:want]...)
}

// Succ returns the current successor pointer (the successor list's head).
func (n *Node) Succ() transport.PeerRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.succLocked()
}

// SuccList returns a snapshot of the successor list, nearest first.
func (n *Node) SuccList() []transport.PeerRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]transport.PeerRef(nil), n.succs...)
}

// Pred returns the current predecessor pointer.
func (n *Node) Pred() transport.PeerRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred
}

// OutLinks returns a snapshot of the long-range out-links.
func (n *Node) OutLinks() []transport.PeerRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]transport.PeerRef(nil), n.out...)
}

// InDegree returns the number of registered in-links.
func (n *Node) InDegree() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.in)
}

// StoredItems returns the number of items in the local shard (the arc the
// node owns; replica copies held for predecessors are not counted).
func (n *Node) StoredItems() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.Len()
}

// ReplicaItems returns the number of replica copies held for predecessors'
// arcs.
func (n *Node) ReplicaItems() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replStore.Len()
}

// Tombstones returns the number of tombstones held across the primary and
// replica stores (deletes remembered for anti-entropy, not yet collected).
func (n *Node) Tombstones() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.TombstoneCount() + n.replStore.TombstoneCount()
}

// SizeEstimate returns the gossip-maintained ring-size estimate: the blend
// of this node's successor-list density estimate with its neighbours',
// refreshed every stabilisation. On rings small enough for the successor
// list to wrap it is an exact count. 0 means no estimate yet (no
// stabilisation has run); a one-peer ring reports 1.
func (n *Node) SizeEstimate() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if local, exact := n.localSizeEstimateLocked(); exact || n.sizeEst == 0 {
		return local
	}
	return n.sizeEst
}

// harmonicBlend combines two ring-size estimates with weights wa+wb=1 in
// inverse space: 1/(wa/a + wb/b). A successor-list density estimate k/f
// is unbiased in its *inverse* (arc fractions f add up to exactly k/N
// across the ring, however skewed the key spacing), so gossip that
// averages inverses converges to the harmonic mean of the local
// estimates — k divided by the true mean arc fraction, i.e. N — where an
// arithmetic blend inherits the heavy right skew of 1/f and
// overestimates under uneven spacing.
func harmonicBlend(a, wa, b, wb float64) float64 {
	if a <= 0 {
		return b
	}
	if b <= 0 {
		return a
	}
	return 1 / (wa/a + wb/b)
}

// localSizeEstimateLocked estimates the ring size from successor-list
// density: k successors spanning fraction f of the circle imply about k/f
// peers. When the last list refresh provably wrapped the ring, the list
// covers every peer, the count is exact, and gossip must not dilute it
// (exact is returned true) — but the wrap proof is only as good as the
// tail it rests on, so it must have survived a full re-verification
// cycle (see succsFreshRounds): a wrap recorded when the ring really was
// three peers would otherwise keep overriding gossip long after a mass
// join. A short list without the wrap proof (fresh join, post-crash
// fallback) still yields a density estimate — never a confident
// miscount.
func (n *Node) localSizeEstimateLocked() (est float64, exact bool) {
	k := len(n.succs)
	if k == 0 {
		return 1, true
	}
	if n.succsWrapped && n.succsFreshRounds >= k {
		return float64(k + 1), true // whole ring in the list, verified
	}
	frac := keyspace.Key(n.self.Key.Distance(n.succs[k-1].Key)).Float()
	if frac <= 0 {
		return float64(k + 1), false
	}
	return float64(k) / frac, false
}

// arcLocked returns the arc this node owns, (pred, self]. The arc is only
// well defined with a known, distinct predecessor: pred == self means the
// slot was cleared by a failure, and an equal key would read as the full
// circle.
func (n *Node) arcLocked() (keyspace.Range, bool) {
	if n.pred.Addr == "" || n.pred.Addr == n.self.Addr || n.pred.Key == n.self.Key {
		return keyspace.Range{}, false
	}
	return keyspace.Range{Start: n.pred.Key + 1, End: n.self.Key + 1}, true
}

// errNotOwner is the typed rejection a data write gets from a node whose
// arc no longer covers the key: the ownership moved between the writer's
// routing step and the data RPC. The write was definitely not executed,
// so the writer re-routes and retries (see dataOp).
const errNotOwner = "not owner"

// ownsLocked reports whether this node currently accepts writes for the
// key. With a real, distinct predecessor this is the exact predicate
// findOwnerLocked terminates routing with, evaluated under the same
// lock. With the pred slot empty or cleared by a failure, routing claims
// the whole circle (lookups must terminate somewhere) but the write gate
// stays bounded: a true singleton owns everything; otherwise only keys
// down to the last known predecessor's key are accepted — arcs whose
// owners are alive elsewhere on the ring must not be silently absorbed.
func (n *Node) ownsLocked(key keyspace.Key) bool {
	if n.pred.Addr != "" && n.pred.Addr != n.self.Addr {
		return key.BetweenIncl(n.pred.Key, n.self.Key) || n.succLocked().Addr == n.self.Addr
	}
	if n.succLocked().Addr == n.self.Addr || !n.haveArcFloor {
		return true
	}
	return key.BetweenIncl(n.arcFloor, n.self.Key)
}

// setPredLocked installs p as the predecessor and, when p is a real
// distinct peer, records its key as the arc floor (see ownsLocked).
func (n *Node) setPredLocked(p transport.PeerRef) {
	if n.pred.Addr != p.Addr {
		// The arc boundary moved (a joiner spliced in, or a crash widened
		// the arc): cached resolutions may now point past the true owner.
		n.routes.Flush()
	}
	n.pred = p
	if p.Addr != "" && p.Addr != n.self.Addr {
		n.arcFloor, n.haveArcFloor = p.Key, true
	}
}

// markJoinDirtyLocked records a write that landed during this node's own
// join window (no-op otherwise) so in-flight migrate chunks cannot stomp
// it.
func (n *Node) markJoinDirtyLocked(key keyspace.Key) {
	if n.joinDirty != nil {
		n.joinDirty[key] = struct{}{}
	}
}

// InjectReplica plants (or overwrites) a replica copy directly in the
// node's replica store, bypassing the protocol — a fault-injection hook for
// divergence tests and harnesses, never used by the overlay itself.
func (n *Node) InjectReplica(k keyspace.Key, v []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replStore.Put(k, v)
}

// DropReplica erases every trace of k (copy and tombstone) from the node's
// replica store — the fault-injection counterpart of InjectReplica.
func (n *Node) DropReplica(k keyspace.Key) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replStore.Drop(k)
}

// DropPrimary erases every trace of k (item and tombstone) from the node's
// primary store, bypassing the protocol — a fault-injection hook that
// models an owner silently losing state, used by read-repair tests.
func (n *Node) DropPrimary(k keyspace.Key) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.store.Drop(k)
}

// PrimaryValue reads the node's primary store directly (test/inspection
// hook).
func (n *Node) PrimaryValue(k keyspace.Key) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.Get(k)
}

// ReplicaValue reads a replica copy directly (test/inspection hook).
func (n *Node) ReplicaValue(k keyspace.Key) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replStore.Get(k)
}

// ReplicaDeleted reports whether the replica store remembers k as deleted.
func (n *Node) ReplicaDeleted(k keyspace.Key) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.replStore.Tombstone(k)
	return ok
}

// isDown reports whether the node has been closed.
func (n *Node) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// Close takes the node off the network (a crash: no graceful handover,
// no final snapshot — recovery replays the WAL tail). CloseClean is the
// graceful counterpart.
func (n *Node) Close() error {
	n.mu.Lock()
	n.down = true
	n.mu.Unlock()
	err := n.tr.Close()
	n.legs.Close()
	if n.eng != nil {
		if cerr := n.eng.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// handle dispatches one request that arrived over the transport; it runs
// on transport goroutines. The request's bytes are its own — over TCP the
// decoder's exact-size copies, on the in-memory fabric the sender's,
// passed by reference — so the stores keep them as they are.
func (n *Node) handle(req *transport.Request) *transport.Response {
	return n.dispatch(req, false)
}

// dispatch serves one request. borrowed marks a request the node addressed
// to itself, served on the caller's goroutine (callRetry): its bytes are
// still the caller's, so what a store keeps of them, it copies.
func (n *Node) dispatch(req *transport.Request, borrowed bool) *transport.Response {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return &transport.Response{OK: false, Err: "node down"}
	}
	return n.handleLocked(req, borrowed)
}

// handleLocked serves one request under n.mu. borrowed says the request's
// byte slices belong to a caller in this process (see dispatch).
func (n *Node) handleLocked(req *transport.Request, borrowed bool) *transport.Response {
	switch req.Op {
	case transport.OpPing:
		return &transport.Response{OK: true, Peer: n.self}

	case transport.OpInfo:
		return &transport.Response{
			OK: true, Peer: n.self,
			MaxIn: n.cfg.MaxIn, InDeg: len(n.in),
		}

	case transport.OpSuccList:
		// One RPC answers both stabilisation questions: the responder's
		// predecessor (Peer) and its successor list (Peers). The exchange
		// doubles as one gossip round of ring-size estimation: fold the
		// caller's estimate into ours and return the result (push-pull
		// averaging in inverse space preserves the mean of 1/est and
		// spreads every local density estimate across the ring). An exact
		// local count — the list wraps the whole ring — overrides gossip
		// instead of blending into it. A request without an estimate
		// (a join, a ring walk, replica GC) is no gossip round and leaves
		// ours alone: a premature count of one would dominate every
		// harmonic blend after it.
		if req.SizeEst > 0 {
			if local, exact := n.localSizeEstimateLocked(); exact {
				n.sizeEst = local
			} else if n.sizeEst == 0 {
				n.sizeEst = req.SizeEst
			} else {
				n.sizeEst = harmonicBlend(n.sizeEst, 0.5, req.SizeEst, 0.5)
			}
		}
		return &transport.Response{
			OK: true, Peer: n.pred,
			Peers:   append([]transport.PeerRef(nil), n.succs...),
			SizeEst: n.sizeEst,
		}

	case transport.OpNotify:
		// A peer announces itself; adopt it as pred and/or succ if it sits
		// between the current pointers and us (Chord notify, both sides).
		from := req.From
		if from.Addr != n.self.Addr {
			if n.pred.Addr == n.self.Addr || from.Key.Between(n.pred.Key, n.self.Key) ||
				(from.Key == n.self.Key && from.Addr != n.pred.Addr && n.pred.Addr == n.self.Addr) {
				n.setPredLocked(from)
			}
			succ := n.succLocked()
			if succ.Addr == n.self.Addr || from.Key.Between(n.self.Key, succ.Key) {
				n.setSuccLocked(from)
			}
		}
		return &transport.Response{OK: true, Peer: n.succLocked()}

	case transport.OpNeighbors:
		return n.neighborsLocked()

	case transport.OpLink:
		if _, dup := n.in[req.From.Addr]; dup {
			return &transport.Response{OK: true} // idempotent
		}
		if len(n.in) >= n.cfg.MaxIn {
			return &transport.Response{OK: false, Err: "refused: in-degree cap"}
		}
		n.in[req.From.Addr] = req.From.Key
		return &transport.Response{OK: true}

	case transport.OpUnlink:
		delete(n.in, req.From.Addr)
		return &transport.Response{OK: true}

	case transport.OpFindOwner:
		// A routing step that ends here also runs the data op it carries,
		// through that op's own case below — ownership gate, join-dirty
		// mark and WAL sink included — inside this same lock hold, so the
		// walk's last hop is the data RPC. Only the four client ops may
		// ride; anything else is ignored and the requester, seeing no
		// Result, sends it directly.
		resp := n.findOwnerLocked(req.Key, req.Exclude)
		if resp.Found {
			switch req.Carry {
			case transport.OpGet, transport.OpPut, transport.OpDelete, transport.OpScan:
				op := *req
				op.Op, op.Carry = req.Carry, ""
				resp.Result = n.handleLocked(&op, borrowed)
			}
		}
		return resp

	case transport.OpPut:
		// Peers carries the replica chain the writer must push copies to;
		// the owner's own replication factor governs its length. Acks is
		// this store's own acknowledgement — the writer adds the chain's.
		if !n.ownsLocked(req.Key) {
			// The arc moved between the writer's routing step and this RPC
			// (a joiner spliced in and migrate drained the range). Acking
			// anyway would strand the value in a store no lookup reaches
			// and no digest covers — a silently lost acknowledged write.
			// Rejection is a definite non-execution: the writer re-routes.
			return &transport.Response{OK: false, Err: errNotOwner, Peer: n.succLocked()}
		}
		n.markJoinDirtyLocked(req.Key)
		value := req.Value
		if borrowed {
			value = bytes.Clone(value)
		}
		replaced := n.store.Put(req.Key, value)
		return &transport.Response{OK: true, Found: replaced, Peers: n.replicaTargetsLocked(), Acks: 1}

	case transport.OpGet:
		// The owned arc is authoritative; the replica store answers for
		// arcs inherited from a crashed predecessor before promotion, and
		// for chain-fallback reads while the owner is unreachable. On a
		// miss, Deleted distinguishes "tombstoned here" (an authoritative
		// delete the reader must not try to fill from replicas) from "no
		// record" (possibly lost state a fallback read may recover).
		v, found := n.store.Get(req.Key)
		if !found {
			v, found = n.replStore.Get(req.Key)
		}
		resp := &transport.Response{OK: true, Value: v, Found: found}
		if !found {
			_, dead := n.store.Tombstone(req.Key)
			if !dead {
				_, dead = n.replStore.Tombstone(req.Key)
			}
			resp.Deleted = dead
		}
		return resp

	case transport.OpDelete:
		// Same ownership gate as OpPut: a delete acked by a node that
		// already handed the key's arc to a joiner would tombstone a store
		// nothing reads while the migrated live copy survives at the new
		// owner — the delete would silently un-happen.
		if !n.ownsLocked(req.Key) {
			return &transport.Response{OK: false, Err: errNotOwner, Peer: n.succLocked()}
		}
		n.markJoinDirtyLocked(req.Key)
		existed := n.store.Delete(req.Key)
		if n.replStore.Delete(req.Key) {
			existed = true
		}
		return &transport.Response{OK: true, Found: existed, Peers: n.replicaTargetsLocked(), Acks: 1}

	case transport.OpReplicate:
		// Owner→replica push, bypassing routing: copies land in the replica
		// store so they never pollute range scans or migrations of the arc
		// this node owns. One op carries all three repair verbs of the
		// anti-entropy plan — upserts (Items), deletes the replica missed
		// (Tombs: clear the copy, remember the delete), and strays the
		// owner has no record of (Drop: forget every trace). Write-time
		// pushes are the single-item degenerate case.
		for _, k := range req.Drop {
			n.replStore.Drop(k)
		}
		n.replStore.InsertTombstones(req.Tombs)
		items := req.Items
		if borrowed {
			items = ownItems(items)
		}
		n.replStore.InsertBulk(items)
		return &transport.Response{OK: true, Acks: 1}

	case transport.OpReplicateDel:
		// A delete propagated along the chain tombstones the copy — so a
		// later stale push cannot resurrect it silently — and clears any
		// promoted remnant from an earlier ownership change. The primary
		// store records the delete only for keys in this node's own arc
		// (where it is the authority); a foreign key's tombstone would sit
		// in the maintained arc digest and make every future digest round
		// against this node's own replicas mismatch until TTL GC.
		found := n.replStore.SetTombstone(req.Key, time.Now().UnixNano())
		if arc, ok := n.arcLocked(); ok && arc.Contains(req.Key) {
			if n.store.Delete(req.Key) {
				found = true
			}
		} else if _, live := n.store.Get(req.Key); live {
			n.store.Drop(req.Key)
			found = true
		}
		return &transport.Response{OK: true, Found: found, Acks: 1}

	case transport.OpDigest:
		// An arc owner asks what this replica holds of its arc: the digest
		// leaf vector over the replica store restricted to the arc,
		// tombstones included. Equal vectors end the sync round right here.
		return &transport.Response{OK: true, Digest: n.replStore.Digest(req.Range, req.Depth)}

	case transport.OpSyncPull:
		// Key-level follow-up for the buckets whose digests disagreed: the
		// per-key states (hash + deleted flag) this replica holds of the
		// owner's arc in those buckets. A read-repair pull additionally
		// asks for the payloads (Values), so one RPC both diffs and heals;
		// the response stays divergence-proportional — only the mismatched
		// buckets' keys ride along.
		states := antientropy.FilterBuckets(n.replStore.SyncStates(req.Range), req.Depth, req.Buckets)
		resp := &transport.Response{OK: true, States: states}
		if req.Values {
			// Values are bounded like replicate frames so an arc-sized
			// divergence cannot build a response past the transport's
			// frame cap; the requester fetches what did not fit key by
			// key, and every adopted key shrinks the next diff, so repair
			// converges over passes. Tombstones are a few words each and
			// always ship complete.
			bytes := 0
			for _, s := range states {
				if s.Deleted {
					if at, ok := n.replStore.Tombstone(s.Key); ok {
						resp.Tombs = append(resp.Tombs, storage.Tombstone{Key: s.Key, At: at})
					}
					continue
				}
				if len(resp.Items) >= maxReplicateItems || bytes >= maxReplicateBytes {
					continue
				}
				if v, ok := n.replStore.Get(s.Key); ok {
					resp.Items = append(resp.Items, storage.Item{Key: s.Key, Value: v})
					bytes += len(v)
				}
			}
		}
		return resp

	case transport.OpReadRepair:
		// A reader found state at a replica that this node — the owner it
		// routed to — has no record of: pull the arc's divergence back
		// from that replica and then re-sync the chain. The pass runs
		// asynchronously (the nudge must stay cheap on the read path),
		// concurrent nudges coalesce into one pass, and a cooldown keeps
		// a read-heavy workload against a divergence repair cannot close
		// (a partitioned replica, a key living outside every digest
		// scope) from degenerating into a continuous digest storm.
		if req.From.Addr == "" || req.From.Addr == n.self.Addr || n.repairing ||
			time.Since(n.repairedAt) < readRepairCooldown {
			return &transport.Response{OK: true}
		}
		n.repairing = true
		n.repairedAt = time.Now()
		go n.readRepair(req.From)
		return &transport.Response{OK: true}

	case transport.OpScan:
		// One page of a streaming arc scan, clockwise from the cursor
		// (Range.Start), non-destructive and bounded by the request's
		// Limit, maxScanItems and PageMaxBytes of values, so a reader asks
		// each owner once for all it holds of a range of usual size. The
		// page merges the primary shard with the replica store (tombstones
		// honoured, primary wins), clipped to the arc this node can serve
		// authoritatively: keys clockwise up to its own position.
		// The clip is what makes the merged view safe — a chain member
		// standing in for a dead predecessor still covers that arc (the
		// dead peer's keys are clockwise before its own), while a healthy
		// node never leaks its replica copies of live predecessors across
		// the circle, which would skip every shard in between. More tells
		// the requester to call again here, from one past the page's last
		// key, before hopping to Peer (the successor).
		rg := req.Range
		selfEnd := n.self.Key + 1
		if rg.Start == selfEnd {
			// The cursor starts exactly past this node's arc: nothing to
			// serve here (and no clip — Start==End would mean full circle).
			return &transport.Response{OK: true, Peer: n.succLocked()}
		}
		if rg.Start.Distance(selfEnd) < rg.Start.Distance(rg.End) {
			rg.End = selfEnd
		}
		maxItems := maxScanItems
		if req.Limit > 0 && req.Limit < maxItems {
			maxItems = req.Limit
		}
		items, more := storage.ScanPageMerged(&n.store, &n.replStore, rg, maxItems, storage.PageMaxBytes)
		return &transport.Response{OK: true, Items: items, More: more, Peer: n.succLocked()}

	case transport.OpMigrate:
		// The joining predecessor takes over its arc — items and the
		// tombstones covering it, so deletes stay deleted across the
		// ownership change. Responses are chunked under the same bounds as
		// replicate pushes (a huge arc must not approach the 16 MiB frame
		// cap): each call extracts the next bounded batch clockwise and
		// More tells the joiner to call again. Tombstones are small and
		// ship with the first chunk (extraction leaves none for later
		// calls). A recovered joiner announces what it already holds
		// (req.States): ownership still transfers in full — extraction
		// proceeds — but byte-identical items are filtered from the
		// response, so a restart re-ships only the downtime delta.
		items, more := n.store.ExtractRangeLimit(req.Range, maxReplicateItems, maxReplicateBytes)
		tombs := n.store.ExtractTombstones(req.Range)
		items = filterMigrateItems(items, req.States)
		return &transport.Response{OK: true, Items: items, Tombs: tombs, More: more}

	default:
		return &transport.Response{OK: false, Err: "unknown op"}
	}
}

// neighborsLocked lists this node's neighbours (ring pointers, out-links,
// in-links) as a multiset like the simulator's walker (symmetric
// multiplicities keep the MH walk uniform). The walker filters them by its
// range (sampling.View).
func (n *Node) neighborsLocked() *transport.Response {
	var peers []transport.PeerRef
	consider := func(ref transport.PeerRef) {
		if ref.Addr != n.self.Addr && ref.Addr != "" {
			peers = append(peers, ref)
		}
	}
	// Only the immediate successor joins the neighbour multiset: the MH
	// walk needs symmetric multiplicities, and succ/pred is the one ring
	// relation both sides track (list tails are one-directional).
	consider(n.succLocked())
	consider(n.pred)
	for _, ref := range n.out {
		consider(ref)
	}
	links := len(peers)
	for addr, key := range n.in {
		consider(transport.PeerRef{Addr: addr, Key: key})
	}
	// In-links come out of a map: put them in key order, so a walk that
	// indexes this list with a seeded stream takes the same steps on
	// every run.
	slices.SortFunc(peers[links:], func(a, b transport.PeerRef) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Addr, b.Addr))
	})
	return &transport.Response{OK: true, Peers: peers, Peer: n.self}
}

// findOwnerLocked answers one iterative routing step: if this node owns the
// key, Found is true (and Peers carries the owner's replica chain, so the
// querier can fall back through it if the owner crashes before the data
// RPC); otherwise Peer is the next hop routing.Rank picks, clockwise, from
// the successor list and the out-links, skipping the query's exclude set.
// With every useful neighbour excluded it reports no route (OK=false) and
// the querier backtracks.
//
// A Found answer also carries the owned arc, so the querier can cache one
// route for every key of it — but only from a node with a real, distinct
// predecessor and a successor other than itself. A cleared predecessor
// slot or a lone node claims the whole circle here, and that claim, cached,
// would send every read to a node whose chain then answers "absent".
func (n *Node) findOwnerLocked(key keyspace.Key, exclude []transport.Addr) *transport.Response {
	v := routing.View[transport.PeerRef]{Self: n.self, Pred: n.pred, Succs: n.succs, Out: n.out}
	next, ans := routing.Rank(v, peerKey, key, func(p transport.PeerRef) bool {
		return slices.Contains(exclude, p.Addr)
	}, routing.Clockwise)
	switch ans {
	case routing.Owned:
		resp := &transport.Response{OK: true, Found: true, Peer: n.self, Peers: n.replicaTargetsLocked()}
		if arc, ok := n.arcLocked(); ok && n.succLocked().Addr != n.self.Addr {
			resp.Arc = arc
		}
		return resp
	case routing.Hop:
		return &transport.Response{OK: true, Peer: next}
	}
	return &transport.Response{OK: false, Err: "no route"}
}

func peerKey(p transport.PeerRef) keyspace.Key { return p.Key }
