package p2p

import (
	"time"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// RecoveryInfo describes what a node reconstructed from its data
// directory at startup. Zero value means durability is off.
type RecoveryInfo struct {
	// Enabled reports that the node runs with a durable engine.
	Enabled bool
	// Clean reports that the previous run shut down cleanly (final
	// snapshot written); a crash restart reads false.
	Clean bool
	// SnapshotAt is the unix-nano save time of the snapshot loaded.
	SnapshotAt int64
	// Replayed is the number of WAL frames replayed over the snapshot.
	Replayed int
	// TornTail reports a torn final frame was found and discarded.
	TornTail bool
	// Items, ReplicaItems and Tombstones count the recovered state.
	Items, ReplicaItems, Tombstones int
}

// HasState reports whether recovery produced any data to re-announce.
func (r RecoveryInfo) HasState() bool {
	return r.Items > 0 || r.ReplicaItems > 0 || r.Tombstones > 0
}

// openEngine runs recovery against cfg.DataDir and installs the
// recovered stores and WAL sinks on the node. Called from NewNode
// before the transport starts serving, so no mutation can race it.
func (n *Node) openEngine() error {
	eng, rec, err := wal.Open(wal.Options{Dir: n.cfg.DataDir, Policy: n.cfg.Fsync})
	if err != nil {
		return err
	}
	n.eng = eng
	n.store = *rec.Primary
	n.replStore = *rec.Replica
	n.recovery = RecoveryInfo{
		Enabled:      true,
		Clean:        rec.Clean,
		SnapshotAt:   rec.SnapshotAt,
		Replayed:     rec.Replayed,
		TornTail:     rec.TornTail,
		Items:        rec.Primary.Len(),
		ReplicaItems: rec.Replica.Len(),
		Tombstones:   rec.Primary.TombstoneCount() + rec.Replica.TombstoneCount(),
	}
	// Sinks attach after replay (ApplyMutation must not re-log) and
	// feed every subsequent mutation to the WAL in apply order — the
	// same hook discipline as the digest tree, under the same n.mu.
	n.store.SetSink(func(m storage.Mutation) { n.logMut(wal.StorePrimary, m) })
	n.replStore.SetSink(func(m storage.Mutation) { n.logMut(wal.StoreReplica, m) })
	return nil
}

// logMut appends one mutation to the WAL. Engine errors are sticky
// inside the engine (every later Append returns them); the in-memory
// store stays authoritative for the running process either way.
func (n *Node) logMut(store uint8, m storage.Mutation) {
	_ = n.eng.Append(wal.Record{Store: store, Mut: m})
}

// Recovery returns what this node reconstructed at startup.
func (n *Node) Recovery() RecoveryInfo { return n.recovery }

// Snapshot forces a compacted snapshot of both stores, truncating the
// WAL. No-op without a durable engine.
func (n *Node) Snapshot() error {
	if n.eng == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Snapshot(&n.store, &n.replStore, time.Now().UnixNano())
}

// snapshotEvery is the WAL frame count that triggers a compacting
// snapshot at the next stabilisation round.
const snapshotEvery = 4096

// maybeSnapshot compacts when the WAL has grown past snapshotEvery
// frames. Runs at the end of every stabilisation round, so
// compaction cost is amortised into maintenance, never a foreground
// write.
func (n *Node) maybeSnapshot() {
	if n.eng == nil {
		return
	}
	if st := n.eng.Stats(); st.Frames >= snapshotEvery {
		_ = n.Snapshot()
	}
}

// CloseClean is the graceful counterpart of Close: write a final
// snapshot and the clean-shutdown marker, then leave the network. A
// node restarted from this state replays nothing and re-announces its
// arc immediately. Without a durable engine it is exactly Close.
func (n *Node) CloseClean() error {
	if n.eng == nil {
		return n.Close()
	}
	n.mu.Lock()
	n.down = true
	serr := n.eng.Snapshot(&n.store, &n.replStore, time.Now().UnixNano())
	if serr == nil {
		serr = n.eng.MarkClean()
	}
	n.mu.Unlock()
	terr := n.tr.Close()
	n.legs.Close()
	cerr := n.eng.Close()
	if serr != nil {
		return serr
	}
	if terr != nil {
		return terr
	}
	return cerr
}

// joinStatesLocked builds the per-key state vector (both stores merged,
// restricted to the arc being claimed) a recovered joiner announces on
// migrate, letting the responder ship only what the joiner lacks.
func (n *Node) joinStatesLocked(arc keyspace.Range) []antientropy.State {
	if n.eng == nil || !n.recovery.HasState() {
		return nil
	}
	states := n.store.SyncStates(arc)
	have := make(map[keyspace.Key]struct{}, len(states))
	for _, s := range states {
		have[s.Key] = struct{}{}
	}
	for _, s := range n.replStore.SyncStates(arc) {
		if _, dup := have[s.Key]; !dup {
			states = append(states, s)
		}
	}
	return states
}

// filterMigrateItems drops items the requester proved it already holds
// byte-identically (matching item hash). Tombstoned or missing keys
// never match — a tombstone state hashes differently — so they always
// ship.
func filterMigrateItems(items []storage.Item, states []antientropy.State) []storage.Item {
	if len(states) == 0 {
		return items
	}
	have := make(map[keyspace.Key]uint64, len(states))
	for _, s := range states {
		if !s.Deleted {
			have[s.Key] = s.Hash
		}
	}
	kept := items[:0]
	for _, it := range items {
		if h, ok := have[it.Key]; ok && h == antientropy.ItemHash(it.Key, it.Value) {
			continue
		}
		kept = append(kept, it)
	}
	return kept
}

// relocateRecoveredLocked re-sorts recovered state against the arc the
// node just claimed: in-arc replica state is promoted into the primary
// store (it is now this node's to serve) and out-of-arc primary state
// is demoted into the replica store, where anti-entropy against the
// keys' current owners reconciles it. After this the primary store
// holds exactly the owned arc — the invariant the digest tree summary
// depends on.
func (n *Node) relocateRecoveredLocked(arc keyspace.Range) {
	n.promoteLocked(arc)
	outside := keyspace.Range{Start: arc.End, End: arc.Start}
	strayItems := n.store.ExtractRange(outside)
	strayTombs := n.store.ExtractTombstones(outside)
	n.replStore.InsertBulk(strayItems)
	n.replStore.InsertTombstones(strayTombs)
}
