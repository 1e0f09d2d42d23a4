package p2p

import (
	"context"
	"time"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// Chunking bounds for one replicate push frame — the storage layer's
// page bounds, which migrate responses and repair batches use too. The
// transport caps frames at 16 MiB; staying an order of magnitude under it
// leaves room for JSON framing and keeps a slow receiver from stalling one
// giant frame.
const (
	maxReplicateItems = storage.PageMaxItems
	maxReplicateBytes = storage.PageMaxBytes
)

// SyncStats counts anti-entropy work. Each field is a total over whatever
// scope the value describes: one sync round, one pass, or (via Node's
// accumulator) the node's lifetime. The headline property of digest sync
// is visible right here: KeysPushed tracks the *divergence* between owner
// and replica, never the arc size.
type SyncStats struct {
	// Rounds is the number of owner→replica digest exchanges opened.
	Rounds int
	// LeavesDiffed is the number of digest buckets that disagreed and were
	// pulled at key level.
	LeavesDiffed int
	// KeysPushed is the number of items shipped to replicas (missing or
	// stale copies).
	KeysPushed int
	// TombsPushed is the number of deletes propagated to replicas that had
	// missed them.
	TombsPushed int
	// Dropped is the number of stray replica keys (no owner record at all)
	// the replicas were told to forget.
	Dropped int
	// Messages is the RPC cost of the sync work.
	Messages int
}

func (s *SyncStats) add(o SyncStats) {
	s.Rounds += o.Rounds
	s.LeavesDiffed += o.LeavesDiffed
	s.KeysPushed += o.KeysPushed
	s.TombsPushed += o.TombsPushed
	s.Dropped += o.Dropped
	s.Messages += o.Messages
}

// SyncTotals returns the node's lifetime anti-entropy counters (membership
// repairs and periodic passes alike).
func (n *Node) SyncTotals() SyncStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// AntiEntropy runs one push-pull digest sync from this node, as arc owner,
// against every member of its replica chain, and returns the pass's stats.
// Traffic is proportional to the divergence: an in-sync replica costs one
// digest RPC (2 KiB), a divergent one additionally pulls the mismatched
// buckets and receives only the differing keys. The maintenance loop calls
// this on the AntiEntropy interval; Stabilize calls the same machinery on
// membership changes.
func (n *Node) AntiEntropy(ctx context.Context) SyncStats {
	n.mu.Lock()
	targets := n.replicaTargetsLocked()
	arc, haveArc := n.arcLocked()
	n.mu.Unlock()
	if !haveArc || len(targets) == 0 {
		return SyncStats{}
	}
	total := n.syncChain(ctx, targets, arc)
	n.mu.Lock()
	n.stats.add(total)
	n.mu.Unlock()
	return total
}

// syncChain digest-syncs every chain target in parallel and merges the
// stats (the caller accounts them).
func (n *Node) syncChain(ctx context.Context, targets []transport.PeerRef, arc keyspace.Range) SyncStats {
	stats := make([]SyncStats, len(targets))
	n.parallel(len(targets), func(i int) {
		stats[i] = n.syncTarget(ctx, targets[i], arc)
	})
	var total SyncStats
	for _, st := range stats {
		total.add(st)
	}
	return total
}

// syncTarget reconciles one replica against the owner's arc:
//
//  1. digest: fetch the replica's leaf vector for the arc and compare it
//     with the owner's incrementally-maintained tree — equal vectors mean
//     the replica is current and the round ends after one RPC;
//  2. pull: fetch the replica's per-key states for the mismatched buckets;
//  3. push: diff against the owner's states and ship only the difference —
//     missing/stale items, missed deletes, and drop notices for strays —
//     in bounded-size replicate frames.
//
// Failures abort the round; the next membership change or anti-entropy tick
// retries. Writes racing the sync can leave a transient mismatch that the
// next round repairs — the protocol is a convergence loop, not a barrier.
func (n *Node) syncTarget(ctx context.Context, target transport.PeerRef, arc keyspace.Range) SyncStats {
	var st SyncStats
	st.Rounds++

	n.mu.Lock()
	mine := n.store.DigestLeaves()
	n.mu.Unlock()

	resp, err := n.tr.CallCtx(ctx, target.Addr, &transport.Request{
		Op: transport.OpDigest, Range: arc, Depth: antientropy.DefaultDepth, From: n.self,
	})
	st.Messages++
	if err != nil || !resp.OK {
		return st
	}
	diff := antientropy.DiffLeaves(mine, resp.Digest)
	st.LeavesDiffed = len(diff)
	if len(diff) == 0 {
		return st
	}

	pull, err := n.tr.CallCtx(ctx, target.Addr, &transport.Request{
		Op: transport.OpSyncPull, Range: arc, Depth: antientropy.DefaultDepth, Buckets: diff, From: n.self,
	})
	st.Messages++
	if err != nil || !pull.OK {
		return st
	}

	// Build the repair plan and collect the payloads under one lock hold,
	// so items, tombstones and the plan describe one consistent snapshot.
	n.mu.Lock()
	ownStates := antientropy.FilterBuckets(n.store.SyncStates(arc), antientropy.DefaultDepth, diff)
	plan := antientropy.Diff(ownStates, pull.States)
	items := make([]storage.Item, 0, len(plan.Push))
	for _, k := range plan.Push {
		if v, ok := n.store.Get(k); ok {
			items = append(items, storage.Item{Key: k, Value: v})
		}
	}
	tombs := make([]storage.Tombstone, 0, len(plan.Tombs))
	for _, k := range plan.Tombs {
		if at, ok := n.store.Tombstone(k); ok {
			tombs = append(tombs, storage.Tombstone{Key: k, At: at})
		}
	}
	n.mu.Unlock()

	if len(items) == 0 && len(tombs) == 0 && len(plan.Drop) == 0 {
		return st
	}
	for _, req := range chunkReplicate(items, tombs, plan.Drop) {
		req.From = n.self
		if _, err := n.tr.CallCtx(ctx, target.Addr, req); err != nil {
			st.Messages++
			return st
		}
		st.Messages++
		st.KeysPushed += len(req.Items)
		st.TombsPushed += len(req.Tombs)
		st.Dropped += len(req.Drop)
	}
	return st
}

// readRepairTimeout bounds one read-repair pass: the pull from the replica
// that served the fallback read plus the chain re-sync that follows.
const readRepairTimeout = 30 * time.Second

// readRepairCooldown is the minimum spacing between read-repair passes at
// one owner. Each pass adopts up to a frame's worth of keys, so a large
// divergence heals over several nudges at this cadence — while a
// divergence no pass can close (partitioned replica, stranded state) costs
// at most one digest exchange per cooldown, not one per fallback read.
const readRepairCooldown = time.Second

// readRepair is the owner-side read-repair pass, launched by the
// read_repair handler after a fallback read exposed state this node lacks:
// digest-pull the arc's divergence back from the replica that served the
// read, then — if anything was adopted — run the normal owner→chain sync
// so the trailing chain converges on the healed arc. The pass is bounded
// (one timeout, one pass per nudge burst) and its work lands in the node's
// anti-entropy stats, so repairs triggered by reads are as observable as
// scheduled ones.
func (n *Node) readRepair(replica transport.PeerRef) {
	defer func() {
		n.mu.Lock()
		n.repairing = false
		n.mu.Unlock()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), readRepairTimeout)
	defer cancel()
	n.mu.Lock()
	arc, haveArc := n.arcLocked()
	targets := n.replicaTargetsLocked()
	n.mu.Unlock()
	if !haveArc {
		return
	}
	st := n.pullFromReplica(ctx, replica, arc)
	if st.KeysPushed+st.TombsPushed > 0 && len(targets) > 0 {
		st.add(n.syncChain(ctx, targets, arc))
	}
	n.mu.Lock()
	n.stats.add(st)
	n.mu.Unlock()
}

// pullFromReplica is the reverse sync round of read-repair: fetch the
// replica's digest of this node's arc, pull states and values for the
// mismatched buckets in one RPC, and adopt only what this node lacks
// entirely — a key with neither a live copy nor a tombstone locally.
// Everything else keeps the owner's version: on a hash mismatch the owner
// is authoritative exactly as in forward sync, so read-repair fills holes
// but never rolls back a fresher write or resurrects an owner's delete.
// Adopted keys count as KeysPushed/TombsPushed — they are the keys the
// round moved.
func (n *Node) pullFromReplica(ctx context.Context, replica transport.PeerRef, arc keyspace.Range) SyncStats {
	var st SyncStats
	st.Rounds++

	n.mu.Lock()
	mine := n.store.DigestLeaves()
	n.mu.Unlock()

	resp, err := n.tr.CallCtx(ctx, replica.Addr, &transport.Request{
		Op: transport.OpDigest, Range: arc, Depth: antientropy.DefaultDepth, From: n.self,
	})
	st.Messages++
	if err != nil || !resp.OK {
		return st
	}
	diff := antientropy.DiffLeaves(mine, resp.Digest)
	st.LeavesDiffed = len(diff)
	if len(diff) == 0 {
		return st
	}

	pull, err := n.tr.CallCtx(ctx, replica.Addr, &transport.Request{
		Op: transport.OpSyncPull, Range: arc, Depth: antientropy.DefaultDepth,
		Buckets: diff, Values: true, From: n.self,
	})
	st.Messages++
	if err != nil || !pull.OK {
		return st
	}

	shipped := make(map[keyspace.Key]bool, len(pull.Items))
	n.mu.Lock()
	for _, it := range pull.Items {
		shipped[it.Key] = true
		if !arc.Contains(it.Key) {
			continue // never let foreign keys into the maintained arc digest
		}
		if _, live := n.store.Get(it.Key); live {
			continue
		}
		if _, dead := n.store.Tombstone(it.Key); dead {
			continue
		}
		n.store.Put(it.Key, it.Value)
		st.KeysPushed++
	}
	for _, tb := range pull.Tombs {
		if !arc.Contains(tb.Key) {
			continue
		}
		if _, live := n.store.Get(tb.Key); live {
			continue
		}
		if _, dead := n.store.Tombstone(tb.Key); dead {
			continue
		}
		n.store.SetTombstone(tb.Key, tb.At)
		st.TombsPushed++
	}
	// The responder bounds the values it ships to one frame's worth;
	// adoptable keys whose values did not fit are fetched one get RPC
	// each, capped per pass — every adopted key shrinks the next digest
	// diff, so even an arc-sized divergence converges over successive
	// nudges instead of building one response past the frame cap.
	var want []keyspace.Key
	for _, s := range pull.States {
		if s.Deleted || shipped[s.Key] || !arc.Contains(s.Key) {
			continue
		}
		if _, live := n.store.Get(s.Key); live {
			continue
		}
		if _, dead := n.store.Tombstone(s.Key); dead {
			continue
		}
		if len(want) >= maxReplicateItems {
			break
		}
		want = append(want, s.Key)
	}
	n.mu.Unlock()
	for _, k := range want {
		if ctx.Err() != nil {
			break
		}
		got, err := n.tr.CallCtx(ctx, replica.Addr, &transport.Request{Op: transport.OpGet, Key: k, From: n.self})
		st.Messages++
		if err != nil || !got.OK || !got.Found {
			continue
		}
		n.mu.Lock()
		_, live := n.store.Get(k)
		_, dead := n.store.Tombstone(k)
		if !live && !dead {
			n.store.Put(k, got.Value)
			st.KeysPushed++
		}
		n.mu.Unlock()
	}
	return st
}

// chunkReplicate splits one repair plan into replicate requests bounded by
// maxReplicateItems / maxReplicateBytes each, so no frame can approach the
// transport's 16 MiB cap no matter how large the divergence. Tombstones and
// drops are small and ride in the first frame.
func chunkReplicate(items []storage.Item, tombs []storage.Tombstone, drop []keyspace.Key) []*transport.Request {
	var reqs []*transport.Request
	for len(items) > 0 {
		count, bytes := 0, 0
		for count < len(items) && count < maxReplicateItems {
			sz := len(items[count].Value) + 16
			if count > 0 && bytes+sz > maxReplicateBytes {
				break
			}
			bytes += sz
			count++
		}
		reqs = append(reqs, &transport.Request{Op: transport.OpReplicate, Items: items[:count]})
		items = items[count:]
	}
	if len(reqs) == 0 {
		reqs = append(reqs, &transport.Request{Op: transport.OpReplicate})
	}
	reqs[0].Tombs = tombs
	reqs[0].Drop = drop
	return reqs
}

// gcReplicasEvery is the steady-state cadence of the replica-collection
// walk: a predecessor change triggers it immediately (that is when state
// strands), and this fallback catches deeper chain shifts — a membership
// change two or more hops back — that the local pred pointer cannot see.
const gcReplicasEvery = 16

// maybeGCReplicas runs gcReplicas when the predecessor changed since the
// last walk, or on the periodic fallback. Stranded replica state can only
// appear on membership changes, so the steady state pays no RPCs.
func (n *Node) maybeGCReplicas(ctx context.Context) {
	if n.cfg.Replicas <= 1 {
		return
	}
	n.mu.Lock()
	due := n.pred.Addr != n.lastGCPred || n.gcTick <= 0
	if due {
		n.lastGCPred = n.pred.Addr
		n.gcTick = gcReplicasEvery
	} else {
		n.gcTick--
	}
	n.mu.Unlock()
	if due {
		n.gcReplicas(ctx)
	}
}

// gcReplicas drops replica state whose keys fall outside the arcs of the
// node's first r-1 predecessors — copies stranded when this node left an
// owner's chain. The union of those arcs is (pred_r, pred_1], so the walk
// must reach the r-th predecessor: pred_1 is known locally and the
// remaining r-1 hops are succ_list RPCs, each answering with the
// responder's predecessor; everything outside (pred_r, self] is
// extracted. A failed or wrapped walk skips the collection — never guess
// about what to forget. It returns how many keys were reclaimed.
func (n *Node) gcReplicas(ctx context.Context) int {
	r := n.cfg.Replicas
	if r <= 1 {
		return 0
	}
	start := n.Pred()
	if start.Addr == "" || start.Addr == n.self.Addr {
		return 0
	}
	for i := 0; i < r-1; i++ {
		// succ_list answers with the responder's predecessor in Peer.
		resp, err := n.tr.CallCtx(ctx, start.Addr, &transport.Request{Op: transport.OpSuccList})
		if err != nil || !resp.OK || resp.Peer.Addr == "" {
			return 0
		}
		if resp.Peer.Addr == n.self.Addr {
			return 0 // ring smaller than the chain: everything is in-region
		}
		start = resp.Peer
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if start.Key == n.self.Key {
		return 0
	}
	outside := keyspace.Range{Start: n.self.Key + 1, End: start.Key + 1}
	return len(n.replStore.ExtractRange(outside)) + len(n.replStore.ExtractTombstones(outside))
}

// gcTombstones collects tombstones older than the tombstone TTL from both
// stores.
func (n *Node) gcTombstones() int {
	cutoff := time.Now().Add(-n.cfg.tombstoneTTL()).UnixNano()
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.GCTombstones(cutoff) + n.replStore.GCTombstones(cutoff)
}
