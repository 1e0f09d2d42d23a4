package p2p

import (
	"cmp"
	"slices"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// State is one node's ring, link, store and counter state, copied under
// one hold of the node lock: no field is from before a change that
// another field is from after.
type State struct {
	Self, Pred transport.PeerRef
	// Succs is the successor list, nearest first (empty on a one-peer
	// ring). Out are the long-range out-links, In the in-links sorted by
	// address.
	Succs, Out, In []transport.PeerRef
	// MaxIn and MaxOut are the link budgets (ρmax), Replicas the
	// replication factor r and WriteConcern the default w.
	MaxIn, MaxOut, Replicas, WriteConcern int
	// Arc is the owned arc (pred, self]; HasArc is false while the
	// predecessor slot is empty or cleared by a failure.
	Arc    keyspace.Range
	HasArc bool
	// Items counts the primary store (the owned arc), ReplicaItems the
	// copies held for predecessors' arcs, Tombstones the deletes both
	// remember for anti-entropy.
	Items, ReplicaItems, Tombstones int
	// RouteHits counts data ops that reached the owner through a cached
	// resolution, RouteMisses the ops that paid the full walk.
	RouteHits, RouteMisses uint64
	// Sync is the lifetime anti-entropy work.
	Sync SyncStats
	// JoinItems and JoinTombs count what the last Join pulled: with
	// recovered state announced, the downtime delta, not the full arc.
	JoinItems, JoinTombs int
	// Durable reports a data directory; WAL is then the engine's on-disk
	// footprint, read after the node lock is released so a state read
	// never waits on the engine's lock under the node's.
	Durable bool
	WAL     wal.Stats
}

// Succ returns the immediate successor: Self on a one-peer ring.
func (s State) Succ() transport.PeerRef {
	if len(s.Succs) == 0 {
		return s.Self
	}
	return s.Succs[0]
}

// State returns the node's state, read under one hold of its lock.
func (n *Node) State() State {
	n.mu.Lock()
	s := State{
		Self: n.self, Pred: n.pred, Succs: slices.Clone(n.succs), Out: slices.Clone(n.out),
		MaxIn: n.cfg.MaxIn, MaxOut: n.cfg.MaxOut, Replicas: n.cfg.Replicas, WriteConcern: n.cfg.WriteConcern,
		Items: n.store.Len(), ReplicaItems: n.replStore.Len(),
		Tombstones: n.store.TombstoneCount() + n.replStore.TombstoneCount(),
		RouteHits:  n.routeHits.Load(), RouteMisses: n.routeMisses.Load(),
		Sync: n.stats, JoinItems: n.lastJoinItems, JoinTombs: n.lastJoinTombs,
	}
	s.In = make([]transport.PeerRef, 0, len(n.in))
	for addr, key := range n.in {
		s.In = append(s.In, transport.PeerRef{Addr: addr, Key: key})
	}
	s.Arc, s.HasArc = n.arcLocked()
	n.mu.Unlock()
	slices.SortFunc(s.In, func(a, b transport.PeerRef) int { return cmp.Compare(a.Addr, b.Addr) })
	if n.eng != nil {
		s.Durable, s.WAL = true, n.eng.Stats()
	}
	return s
}

// KeyState is what one node's stores hold of one key: the primary
// (owned-arc) store's value and the replica store's copy, and whether
// each remembers the key as deleted.
type KeyState struct {
	Primary, Replica         []byte
	HasPrimary, HasReplica   bool
	PrimaryTomb, ReplicaTomb bool
}

// KeyState reads both stores' record of k under one lock hold, without
// routing: an inspection hook for tests and for triaging harness
// failures.
func (n *Node) KeyState(k keyspace.Key) KeyState {
	n.mu.Lock()
	defer n.mu.Unlock()
	var s KeyState
	s.Primary, s.HasPrimary = n.store.Get(k)
	s.Replica, s.HasReplica = n.replStore.Get(k)
	_, s.PrimaryTomb = n.store.Tombstone(k)
	_, s.ReplicaTomb = n.replStore.Tombstone(k)
	return s
}
