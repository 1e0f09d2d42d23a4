package p2p

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/sampling"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// maxRouteHops bounds an iterative lookup; only a broken ring exhausts it.
const maxRouteHops = 4096

// ErrNoRoute reports that routing exhausted every candidate path to the
// key's owner (all useful neighbours dead or excluded, or the hop budget
// ran out). Callers distinguish it from transport failures and from
// context cancellation with errors.Is.
var ErrNoRoute = errors.New("p2p: no route")

// ErrWriteConcern reports that a write reached the key's owner but fewer
// members of owner+chain acknowledged it than the requested write
// concern. Match with errors.Is; errors.As against *WriteConcernError
// recovers the counts.
var ErrWriteConcern = errors.New("p2p: write concern not satisfied")

// WriteConcernError carries a write's ack shortfall: Acks members of
// owner+chain acknowledged, Want were required. The write is NOT rolled
// back — the owner and every acking chain member hold it, and the next
// anti-entropy pass re-fills the members that missed it — the error
// reports that durability is below the requested level at return time.
type WriteConcernError struct {
	Acks, Want int
}

func (e *WriteConcernError) Error() string {
	return fmt.Sprintf("p2p: write concern not satisfied: %d/%d acks", e.Acks, e.Want)
}

func (e *WriteConcernError) Unwrap() error { return ErrWriteConcern }

// Join enters the overlay through any existing member: it routes to the
// owner of the node's key (the future successor), splices itself between the
// owner and the owner's predecessor, migrates its arc's items, and wires its
// long-range links. The context bounds the whole sequence.
func (n *Node) Join(ctx context.Context, introducer transport.Addr) error {
	owner, _, err := n.lookupVia(ctx, introducer, n.self.Key)
	if err != nil {
		return fmt.Errorf("p2p: join: %w", err)
	}
	// succ_list answers with the owner's predecessor in Peer.
	resp, _, err := n.callRetry(ctx, owner.Addr, &transport.Request{Op: transport.OpSuccList})
	if err != nil || !resp.OK {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("p2p: join: owner unreachable: %w", err)
	}
	pred := resp.Peer

	n.mu.Lock()
	n.setSuccLocked(owner)
	if pred.Addr != "" && pred.Addr != n.self.Addr {
		n.setPredLocked(pred)
	} else {
		n.setPredLocked(owner)
	}
	predKey := n.pred.Key
	// From the moment the ring learns about us (the notify below), writes
	// for the new arc can route here — racing the migrate pull still in
	// flight. Track every key written during the window so stale migrated
	// copies (extracted before those writes landed) cannot overwrite them.
	n.joinDirty = make(map[keyspace.Key]struct{})
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.joinDirty = nil
		n.mu.Unlock()
	}()

	// Announce ourselves to both sides in parallel so their pointers splice
	// eagerly (periodic Stabilize would get there too, just later).
	notify := &transport.Request{Op: transport.OpNotify, From: n.self}
	targets := []transport.Addr{owner.Addr}
	if pred.Addr != "" && pred.Addr != owner.Addr {
		targets = append(targets, pred.Addr)
	}
	results, _ := n.fanoutRetry(ctx, targets, notify)
	for _, r := range results {
		if r.Err != nil {
			// A cancelled fanout fails every call: surface the caller's
			// cancellation, never a fabricated dead-peer report.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("p2p: join: notify %s: %w", r.Addr, r.Err)
		}
	}

	// Take over the arc (pred, self] from the successor — the items, and
	// the tombstones covering it, so deletes survive the ownership change.
	// Migrate responses are chunked (extraction makes repeated calls
	// progress through the range), so a huge arc arrives in bounded frames.
	arc := keyspace.Range{Start: predKey + 1, End: n.self.Key + 1}
	n.mu.Lock()
	// A node restarting from a data directory announces the per-key
	// state it already holds: the responder still hands over the whole
	// range, but ships only the keys this node lacks — the downtime
	// delta, not the full arc.
	states := n.joinStatesLocked(arc)
	n.lastJoinItems, n.lastJoinTombs = 0, 0
	n.mu.Unlock()
	for {
		// Retrying a shed migrate is safe: overload means the request was
		// never executed, so no extracted chunk is at stake. Dropped and
		// timed-out calls get a few bounded retries too — abandoning the
		// pull mid-range is the worst outcome here: on a recovered join
		// the stale WAL state would become authoritative for the un-pulled
		// remainder while the fresh values sit stranded at the old owner,
		// and the next digest sync would push the stale copies over the
		// good replicas. A lost response after execution (TCP) has already
		// cost that chunk either way; the retry still drains the rest of
		// the range instead of stranding it.
		var mig *transport.Response
		var err error
		for attempt := 0; ; attempt++ {
			mig, _, err = n.callRetry(ctx, owner.Addr, &transport.Request{Op: transport.OpMigrate, Range: arc, From: n.self, States: states})
			if (err == nil && mig.OK) || attempt >= 3 || ctx.Err() != nil {
				break
			}
			_ = sleepCtx(ctx, 20*time.Millisecond)
		}
		if err != nil || mig == nil || !mig.OK {
			// Partial migration: the un-pulled remainder stays in the
			// successor's primary store, where the successor keeps serving
			// it until a future join drains the range (chunking already
			// shrank the blast radius — before it, a lost migrate response
			// dropped the entire extracted arc). See ROADMAP: migration
			// leases. A chunk that ran with its reply lost is gone from
			// the successor's primary store, but at r > 1 it keeps a
			// replica copy of it: adopt, pass by pass, every key of the
			// arc this node has neither a copy nor a tombstone of, before
			// the first chain sync drops those copies as strays.
			for n.cfg.Replicas > 1 {
				if st := n.pullFromReplica(ctx, owner, arc); st.KeysPushed+st.TombsPushed == 0 {
					break
				}
			}
			break
		}
		if len(mig.Items) > 0 || len(mig.Tombs) > 0 {
			n.mu.Lock()
			items, tombs := mig.Items, mig.Tombs
			if len(n.joinDirty) > 0 {
				// A put or delete we acked after this chunk was extracted
				// is newer than anything in it: keep our copy (or our
				// tombstone) and drop the migrated one.
				keptItems := items[:0]
				for _, it := range items {
					if _, dirty := n.joinDirty[it.Key]; !dirty {
						keptItems = append(keptItems, it)
					}
				}
				items = keptItems
				keptTombs := tombs[:0]
				for _, tb := range tombs {
					if _, dirty := n.joinDirty[tb.Key]; !dirty {
						keptTombs = append(keptTombs, tb)
					}
				}
				tombs = keptTombs
			}
			if n.recovery.HasState() {
				// A recovered tombstone outranks a copy the responder
				// still holds: the delete may never have reached it
				// before the crash, and InsertBulk's Put would clear
				// the tombstone and resurrect the key.
				kept := items[:0]
				for _, it := range items {
					if _, dead := n.store.Tombstone(it.Key); !dead {
						kept = append(kept, it)
					}
				}
				items = kept
			}
			n.store.InsertBulk(items)
			n.store.InsertTombstones(tombs)
			n.lastJoinItems += len(items)
			n.lastJoinTombs += len(tombs)
			n.mu.Unlock()
		}
		if !mig.More {
			break
		}
	}
	if n.recovery.HasState() {
		// Recovered state may predate an arc change: promote in-arc
		// replica copies into the primary store and demote keys the new
		// arc no longer covers, so the primary store again holds exactly
		// the owned arc (the digest tree's contract).
		n.mu.Lock()
		n.relocateRecoveredLocked(arc)
		n.mu.Unlock()
	}

	return n.Rewire(ctx)
}

// Stabilize runs one round of Chord stabilisation: verify the successor,
// adopt a closer one if it appeared, refresh the successor list from the
// live successor, re-notify, and drop a dead predecessor. It finishes with
// the replication upkeep that rides on membership knowledge: promoting
// replica copies the node now owns and re-replicating the local arc when
// the first r list entries changed. Call it periodically (or after
// failures) to heal the ring.
func (n *Node) Stabilize(ctx context.Context) {
	n.mu.Lock()
	succ, pred := n.succLocked(), n.pred
	n.mu.Unlock()
	if succ.Addr == n.self.Addr {
		return
	}

	// The successor check and the predecessor liveness probe are
	// independent: overlap them so one dead peer's timeout does not delay
	// probing the other. One succ_list RPC answers both stabilisation
	// questions: the successor's predecessor and its successor list.
	var (
		succResp *transport.Response
		succErr  error
		predDead bool
	)

	probes := 1 // the successor's; the predecessor's unless it is this node
	if pred.Addr != n.self.Addr {
		probes = 2
	}
	n.parallel(probes, func(i int) {
		if i == 0 {
			succResp, _, succErr = n.readRetry(ctx, succ.Addr, &transport.Request{Op: transport.OpSuccList, From: n.self})
			return
		}
		// An overloaded predecessor is alive — it shed the probe, it
		// didn't miss it. Clearing the slot would hand it to a worse
		// candidate at the next notify for no reason. The probe rides
		// out transient drops too (readRetry): a cleared slot makes
		// this node claim the whole counterclockwise circle until the
		// next notify, so a false positive here corrupts routing.
		if _, _, err := n.readRetry(ctx, pred.Addr, &transport.Request{Op: transport.OpPing}); err != nil && !errors.Is(err, transport.ErrOverloaded) {
			predDead = true
		}
	})
	if ctx.Err() != nil {
		return // cancelled: don't interpret aborted probes as dead peers
	}

	// Clear a dead predecessor so a live candidate can claim the slot at
	// the next notify — but only if it is still the peer we probed; a
	// notify may have installed a live predecessor during the probe.
	if predDead {
		n.mu.Lock()
		if n.pred.Addr == pred.Addr {
			n.pred = n.self
		}
		n.mu.Unlock()
	}

	if succErr != nil && errors.Is(succErr, transport.ErrOverloaded) {
		// The successor shed the exchange: it is saturated, not dead.
		// Keep the pointer and the list untouched — adopting the next
		// list entry here would splice a live peer out of the ring — and
		// let the next round retry.
	} else if succErr != nil || !succResp.OK {
		// Successor is dead: walk the successor list for a live entry.
		n.adoptNextSuccessor(ctx)
	} else {
		x := succResp.Peer // the successor's predecessor
		adopted := false
		if x.Addr != "" && x.Addr != n.self.Addr && x.Key.Between(n.self.Key, succ.Key) {
			if _, _, err := n.readRetry(ctx, x.Addr, &transport.Request{Op: transport.OpPing}); err == nil || errors.Is(err, transport.ErrOverloaded) {
				n.mu.Lock()
				n.setSuccLocked(x)
				n.mu.Unlock()
				adopted = true
			}
		}
		if !adopted {
			// Refresh the list through the verified successor: [succ] +
			// succ's own list, in ring order.
			n.refreshSuccList(succ, succResp.Peers)
		}
		n.mu.Lock()
		succ = n.succLocked()
		n.mu.Unlock()
		_, _ = n.tr.CallCtx(ctx, succ.Addr, &transport.Request{Op: transport.OpNotify, From: n.self})
	}

	n.syncReplicas(ctx)
	n.maybeGCReplicas(ctx)
	n.gcTombstones()
	n.maybeSnapshot()
}

// refreshSuccList rebuilds the successor list as head followed by head's
// own successors. Entries at or past self are dropped: on rings smaller
// than the target length the list must not wrap past the node itself.
func (n *Node) refreshSuccList(head transport.PeerRef, tail []transport.PeerRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	limit := n.succListLen()
	list := make([]transport.PeerRef, 0, limit)
	list = append(list, head)
	for _, p := range tail {
		if len(list) >= limit {
			break
		}
		if p.Addr == "" || p.Addr == n.self.Addr {
			break // the list ends, or wraps back to us
		}
		if p.Addr == head.Addr {
			continue
		}
		list = append(list, p)
	}
	// Only replace if the head still matches the current successor: a
	// concurrent notify may have installed a closer one while the RPC was
	// in flight.
	if n.succLocked().Addr == head.Addr {
		n.succs = list
	}
}

// adoptNextSuccessor replaces a dead successor by walking the successor
// list in ring order — the r-entry insurance maintained for exactly this
// moment. All list entries are pinged in one parallel sweep and the first
// live one (closest clockwise) takes over, with the dead prefix dropped.
// If the whole list is gone (correlated failures), the node falls back to
// the nearest alive long-range or in-link clockwise.
func (n *Node) adoptNextSuccessor(ctx context.Context) {
	n.mu.Lock()
	list := slices.Clone(n.succs)
	n.mu.Unlock()
	if len(list) == 0 {
		return
	}
	// Installs below only apply while the failed head is still current: a
	// concurrent notify may have already delivered a closer live successor
	// during the ping sweep, and that knowledge must win.
	deadHead := list[0]
	install := func(succs []transport.PeerRef) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.succLocked().Addr != deadHead.Addr {
			return false
		}
		n.succs = succs
		return true
	}
	if len(list) > 1 {
		tail := list[1:] // entry 0 is the successor that just failed
		results, _ := n.fanoutReadRetry(ctx, addrsOf(tail), &transport.Request{Op: transport.OpPing})
		if ctx.Err() != nil {
			return // cancelled probes are not dead list entries
		}
		for i, c := range tail {
			if !aliveResult(results[i]) || c.Addr == n.self.Addr {
				continue
			}
			if install(append([]transport.PeerRef(nil), tail[i:]...)) {
				_, _ = n.tr.CallCtx(ctx, c.Addr, &transport.Request{Op: transport.OpNotify, From: n.self})
			}
			return
		}
	}

	// The whole list died with the successor: sweep every remaining link
	// for the closest alive peer clockwise.
	n.mu.Lock()
	cands := append([]transport.PeerRef(nil), n.out...)
	for addr, key := range n.in {
		cands = append(cands, transport.PeerRef{Addr: addr, Key: key})
	}
	n.mu.Unlock()

	filtered := cands[:0]
	for _, c := range cands {
		if c.Addr != n.self.Addr {
			filtered = append(filtered, c)
		}
	}
	results, _ := n.fanoutReadRetry(ctx, addrsOf(filtered), &transport.Request{Op: transport.OpPing})
	if ctx.Err() != nil {
		return // cancelled sweep: keep the current (possibly stale) head
	}

	var best transport.PeerRef
	bestDist := ^uint64(0)
	for i, c := range filtered {
		if !aliveResult(results[i]) {
			continue
		}
		if d := n.self.Key.Distance(c.Key); d > 0 && d < bestDist {
			best, bestDist = c, d
		}
	}
	if best.Addr != "" && install([]transport.PeerRef{best}) {
		_, _ = n.tr.CallCtx(ctx, best.Addr, &transport.Request{Op: transport.OpNotify, From: n.self})
	}
}

// addrsOf lists the peers' addresses.
func addrsOf(peers []transport.PeerRef) []transport.Addr {
	addrs := make([]transport.Addr, len(peers))
	for i, p := range peers {
		addrs[i] = p.Addr
	}
	return addrs
}

// promoteLocked moves the replica state in arc, which the node now owns,
// into the primary store and returns the items it promoted.
func (n *Node) promoteLocked(arc keyspace.Range) int {
	promoted := 0
	// Promote inherited items — absent keys only: a primary copy, when
	// present, is at least as fresh as any replica of it, and a primary
	// tombstone means the key is deleted, not missing.
	for _, it := range n.replStore.ExtractRange(arc) {
		_, live := n.store.Get(it.Key)
		_, dead := n.store.Tombstone(it.Key)
		if !live && !dead {
			n.store.Put(it.Key, it.Value)
			promoted++
		}
	}
	// Promote inherited delete knowledge: the previous owner's deletes
	// must keep holding once this node answers for the arc. A live
	// primary copy wins (it can only postdate the replica's tombstone
	// via a fresh write).
	for _, tb := range n.replStore.ExtractTombstones(arc) {
		if _, live := n.store.Get(tb.Key); !live {
			n.store.SetTombstone(tb.Key, tb.At)
		}
	}
	return promoted
}

// syncReplicas is the replication upkeep run at the end of every
// stabilisation round. Three duties: promote replica state whose keys fell
// into the node's own arc (it inherited them when its predecessor range
// expanded after a crash), digest-sync the replica chain whenever that
// membership — or a promotion — changed what the chain must hold, and
// garbage-collect replica state stranded outside the chains this node still
// serves. Re-replication is incremental: instead of re-pushing the whole
// arc, the owner compares Merkle-style digests with each chain member and
// ships only the missing or stale keys, so repair traffic is proportional
// to the divergence, not the shard. A target that misses one round is
// caught by the next membership change or anti-entropy tick.
func (n *Node) syncReplicas(ctx context.Context) {
	if n.cfg.Replicas <= 1 {
		return
	}
	n.mu.Lock()
	arc, haveArc := n.arcLocked()
	promoted := 0
	if haveArc {
		promoted = n.promoteLocked(arc)
	}
	targets := n.replicaTargetsLocked()
	changed := promoted > 0 || len(targets) != len(n.lastChain)
	if !changed {
		for i, p := range targets {
			if n.lastChain[i] != p.Addr {
				changed = true
				break
			}
		}
	}
	if changed {
		n.lastChain = addrsOf(targets)
		// The first-r chain this node replicates to changed: cached
		// resolutions carry chains for read fallback, so the membership
		// shift makes all of them suspect.
		n.routes.Flush()
	}
	n.mu.Unlock()

	if !changed || len(targets) == 0 || !haveArc {
		return
	}
	total := n.syncChain(ctx, targets, arc)
	n.mu.Lock()
	n.stats.add(total)
	n.mu.Unlock()
}

// CountPeers walks the ring clockwise via successor pointers and returns
// the number of peers when the walk returns home within max hops, and -1
// when it cannot (a ring larger than max, or a break mid-walk). It is an
// exact count on small healthy rings and a deliberate "unknown" otherwise.
func (n *Node) CountPeers(ctx context.Context, max int) int {
	n.mu.Lock()
	cur := n.succLocked()
	n.mu.Unlock()
	count := 1 // self
	for hops := 0; hops < max; hops++ {
		if cur.Addr == n.self.Addr {
			return count
		}
		if ctx.Err() != nil {
			return -1
		}
		resp, _, err := n.readRetry(ctx, cur.Addr, &transport.Request{Op: transport.OpSuccList})
		if err != nil || !resp.OK {
			return -1
		}
		// The responder's successor heads its list; an empty list means
		// the responder is its own successor.
		next := cur
		if len(resp.Peers) > 0 {
			next = resp.Peers[0]
		}
		if next.Addr == "" || next.Addr == cur.Addr {
			return -1
		}
		count++
		cur = next
	}
	if cur.Addr == n.self.Addr {
		return count
	}
	return -1
}

// Lookup routes from this node to the owner of key. It returns the owner and
// the message cost (routing steps plus dead-peer probes). Cancelling the
// context aborts the walk between hops with ctx.Err().
func (n *Node) Lookup(ctx context.Context, key keyspace.Key) (transport.PeerRef, int, error) {
	return n.lookupVia(ctx, n.self.Addr, key)
}

// lookupVia routes starting at a given peer; see walk.
func (n *Node) lookupVia(ctx context.Context, start transport.Addr, key keyspace.Key) (transport.PeerRef, int, error) {
	rt, cost, err := n.walk(ctx, start, key, nil)
	return rt.owner, cost, err
}

// route is what a walk or the route cache resolved: the key's owner, the
// owner's replica chain (the successor list entries holding copies of its
// arc; ops fall back through it when the owner dies), the owner's arc when
// its answer carried one (the zero Range otherwise; a cached route's
// arc is the one it is cached under), and — when the route carried an op
// and the owner ran it — that op's response.
type route struct {
	owner  transport.PeerRef
	chain  []transport.PeerRef
	arc    keyspace.Range
	result *transport.Response
}

// cacheRoute caches rt, a resolution of key, under rt.arc — the owner's
// arc, so one walk serves every key the owner holds — or, when the owner
// sent no arc (the zero Range, which is full), under key alone. An owner
// that refused the op as not its own (its arc moved after the step that
// named it) is not cached: the arc containing key is dropped instead, so
// the op's retry walks.
func (n *Node) cacheRoute(key keyspace.Key, rt route) {
	if rt.result != nil && rt.result.Err == errNotOwner {
		n.routes.Invalidate(key)
		return
	}
	if rt.arc.IsFull() {
		rt.arc = keyspace.Range{Start: key, End: key + 1}
	}
	rt.result = nil
	n.routes.PutArc(rt.arc, rt)
}

// A data op is built once, as the find_owner that routes toward its key
// and asks a responder that turns out to be the owner to run the op in
// the same message (see transport.Request.Carry); its arguments ride in
// the request's own fields. direct returns the data RPC op carries, for
// an owner reached without running it and for a replica chain.
func direct(op *transport.Request) *transport.Request {
	req := *op
	req.Op, req.Carry = op.Carry, ""
	return &req
}

// isWrite reports whether op carries a put or a delete.
func isWrite(op *transport.Request) bool {
	return op.Carry == transport.OpPut || op.Carry == transport.OpDelete
}

// send sends one hop of a route under readRetry, which rides out
// transient unreachability, unless it carries a write: that is the data
// RPC, re-sent only when shed (callRetry), since an unanswered write may
// have run and a second send could apply it twice.
func (n *Node) send(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, int, error) {
	if isWrite(req) {
		return n.callRetry(ctx, addr, req)
	}
	return n.readRetry(ctx, addr, req)
}

// walk routes to the owner of key starting at a given peer, and — given
// an op — has the owner run it on the hop that reaches it, so a data op
// costs its routing hops and nothing more. It runs the router the
// simulator runs (routing.Walk) over find_owner steps: peers discovered
// dead, or routeless for this key, go into an exclude set that visited
// peers honour, and the walk backtracks when its current peer is
// exhausted. Backtrack candidates are liveness-probed in parallel, so a
// run of dead peers costs one overlapped timeout instead of a serial
// timeout each.
//
// The op rides only where it can run: on the step this node computes
// itself (dispatched in-process, see callRetry) and on a hop whose target
// the previous responder named as the owner — key ∈ (responder, target],
// which is how every walk arrives, because long links never overshoot.
// Intermediate hops stay plain find_owner queries. A hop carrying a put
// or a delete is sent under the data RPC's contract (send), and an
// ambiguous failure ends the op with an error instead of excluding the
// peer and re-sending the write somewhere else. A route whose owner was
// reached by a plain hop (a backtrack) comes back without a result and
// leaves the op to the caller's direct RPC.
//
// The context is checked before every hop and a transport failure caused by
// cancellation surfaces as ctx.Err() rather than being mistaken for a dead
// peer, so a cancelled multi-hop walk stops issuing RPCs immediately.
func (n *Node) walk(ctx context.Context, start transport.Addr, key keyspace.Key, op *transport.Request) (route, int, error) {
	w := &walker{n: n, ctx: ctx, op: op, curKey: n.self.Key, curKeyed: start == n.self.Addr}
	res, err := routing.Walk[transport.Addr](w, start, key, maxRouteHops)
	switch {
	case res.Found:
		return w.rt, w.cost, nil
	case errors.Is(err, routing.ErrBudget):
		return route{}, w.cost, fmt.Errorf("%w to %v: hop budget exhausted", ErrNoRoute, key)
	case err != nil:
		return route{}, w.cost, err
	case ctx.Err() != nil:
		return route{}, w.cost, ctx.Err()
	}
	return route{}, w.cost, fmt.Errorf("%w to %v", ErrNoRoute, key)
}

// walker is the node as the router's substrate (routing.Substrate): Ask is
// one find_owner step, Alive one parallel ping fan-out. It counts the
// messages the walk sends and keeps the route the owner's answer carried
// (ownerAnswer).
type walker struct {
	n    *Node
	ctx  context.Context
	op   *transport.Request
	cost int
	rt   route
	// curKey is the asked peer's position when the walk knows it (a
	// backtrack lands on a bare address); named says the previous
	// responder gave the asked peer as the key's owner.
	curKey          keyspace.Key
	curKeyed, named bool
}

func (w *walker) Ask(cur transport.Addr, key keyspace.Key, bad []transport.Addr) (transport.Addr, routing.Answer, error) {
	if err := w.ctx.Err(); err != nil {
		return "", 0, err
	}
	n, op := w.n, w.op
	var probe *transport.Request
	if op != nil && (cur == n.self.Addr || w.named) {
		probe = op
		if len(bad) > 0 {
			c := *op
			c.Exclude = bad
			probe = &c
		}
	} else {
		probe = &transport.Request{Op: transport.OpFindOwner, Key: key, Exclude: bad}
	}
	// A message is charged where it is sent, retries included; a step
	// this node takes on itself — the walk's first, or a later one when
	// churn routes the walk back through its entry node — is dispatched
	// in-process (callRetry) and costs nothing.
	resp, sends, err := n.send(w.ctx, cur, probe)
	w.cost += sends
	if owner, result, ok := ownerAnswer(resp, err); ok {
		w.rt = route{owner: owner, chain: resp.Peers, arc: resp.Arc, result: result}
		return cur, routing.Owned, nil
	}
	if err != nil || !resp.OK {
		if cerr := w.ctx.Err(); cerr != nil {
			return "", 0, cerr
		}
		if errors.Is(err, transport.ErrOverloaded) {
			// The hop shed both the call and its retry. The peer is
			// alive — excluding it would route every later query around
			// a functioning node — so surface the backpressure and let
			// the caller decide to retry the whole operation.
			return "", 0, fmt.Errorf("p2p: lookup via %s: %w", cur, err)
		}
		if err != nil && isWrite(probe) {
			// The write may have run with its ack lost: re-sending it
			// anywhere could apply it twice.
			return "", 0, fmt.Errorf("p2p: %s: owner unreachable: %w", op.Carry, err)
		}
		w.named, w.curKeyed = false, false
		if err != nil {
			return "", routing.Silent, nil
		}
		return "", routing.NoRoute, nil
	}
	w.named = w.curKeyed && key.BetweenIncl(w.curKey, resp.Peer.Key)
	w.curKey, w.curKeyed = resp.Peer.Key, true
	return resp.Peer.Addr, routing.Hop, nil
}

// ownerAnswer reads a find_owner answer (resp, err) from the key's owner:
// the owner, and the answer itself as the carried op's response when the
// owner ran the op (Owner set), or nil when it only answered Found. A
// refused carried write (OK=false, "not owner") is the op's result, not a
// dead end. ok is false for anything else: a failed call, a hop, no route.
func ownerAnswer(resp *transport.Response, err error) (owner transport.PeerRef, result *transport.Response, ok bool) {
	switch {
	case err != nil:
	case resp.Owner.Addr != "":
		return resp.Owner, resp, true
	case resp.OK && resp.Found:
		return resp.Peer, nil, true
	}
	return transport.PeerRef{}, nil, false
}

func (w *walker) Alive(addrs []transport.Addr) ([]bool, error) {
	if err := w.ctx.Err(); err != nil {
		return nil, err
	}
	results, sends := w.n.fanoutReadRetry(w.ctx, addrs, &transport.Request{Op: transport.OpPing})
	w.cost += sends
	if err := w.ctx.Err(); err != nil {
		return nil, err // cancelled probes prove nothing about the peers
	}
	alive := make([]bool, len(results))
	for i, r := range results {
		alive[i] = aliveResult(r)
	}
	return alive, nil
}

// resolve resolves key → owner + replica chain and runs op — a get, a
// put, a delete or one scan page — at the owner in the same messages,
// consulting the route cache first. A hit — the cached arc of an owner
// contains key — sends one find_owner carrying op straight to that owner,
// under the rule every carried hop follows (send): that owner answering
// as the owner (ownerAnswer), from the gate that terminates every real
// walk, confirms the resolution, refreshes the chain and runs the op, so a
// multi-hop walk plus a data RPC collapse to one message. Anything else
// falls back to the full walk — an overloaded owner keeps its entry
// (alive, just shedding), any other answer drops the arc containing key.
// A successful resolve (either path) re-primes the cache.
//
// A cached owner that does not answer at all crashed after it last did.
// Until its predecessor repairs, every walk dead-ends there, so the op
// goes to the replica chain the owner last named instead: its head stands
// in as the owner — it inherits the arc — and the rest stay the chain.
// That route comes back without a result, and the caller sends op there.
func (n *Node) resolve(ctx context.Context, key keyspace.Key, op *transport.Request) (route, int, error) {
	cost := 0
	if ent, ok := n.routes.Get(key); ok {
		resp, sends, err := n.send(ctx, ent.owner.Addr, op)
		cost += sends
		if cerr := ctx.Err(); cerr != nil {
			return route{}, cost, cerr
		}
		if owner, result, ok := ownerAnswer(resp, err); ok && owner.Addr == ent.owner.Addr {
			n.routeHits.Add(1)
			ent.chain, ent.result = resp.Peers, result
			n.cacheRoute(key, ent)
			return ent, cost, nil
		}
		if !errors.Is(err, transport.ErrOverloaded) {
			n.routes.Invalidate(key)
			if err != nil && len(ent.chain) > 0 {
				n.routeMisses.Add(1)
				return route{owner: ent.chain[0], chain: ent.chain[1:]}, cost, nil
			}
		}
	}
	if n.routes != nil {
		n.routeMisses.Add(1)
	}
	rt, c, err := n.walk(ctx, n.self.Addr, key, op)
	cost += c
	if err == nil {
		n.cacheRoute(key, rt)
	}
	return rt, cost, err
}

// OpResult reports one data-layer operation executed at the key's owner.
type OpResult struct {
	// Owner is the peer that served the operation.
	Owner transport.PeerRef
	// Cost is the message cost: the remote routing hops — the op rides the
	// last one — plus any backtrack probe, direct data RPC (a cached route,
	// a chain fallback, a read-repair nudge) and replica push. A message
	// that is re-sent — a shed call or push, an unanswered read or probe —
	// counts each send. Whatever this node
	// addresses to itself is free, wherever it falls: the walk's first
	// step, a step churn routes back through this node, an op or a replica
	// push on its own store.
	Cost int
	// Replaced reports whether a Put overwrote an existing value.
	Replaced bool
	// Found reports whether the item existed (Get, Delete).
	Found bool
	// Value is the stored value (Get).
	Value []byte
	// Acks is the number of stores that acknowledged a write (the owner
	// plus replica chain members), as reported on the wire by the data
	// and replicate responses — the observable a write concern is
	// enforced against.
	Acks int
}

// dataOp runs one write at the owner of key through resolve, so a
// cached route or the walk's last hop carries it and it costs no
// separate data RPC. The raw response is returned alongside so write ops
// can read the replica chain the owner piggybacks on it. A route that
// comes back without a result — the owner reached by a backtrack, or the
// chain head standing in for an unanswered cached owner — gets the op
// as a direct RPC.
//
// A "not owner" rejection — from the gate behind the carried hop or the
// direct RPC alike — means the arc moved after the routing step that
// named the owner (a joiner spliced in, or the stand-in's predecessor has
// not yet repaired): the op was definitely not executed, so re-routing
// and retrying is safe for writes. The retry is bounded and paced — one
// splice is a few notifies away from visible.
func (n *Node) dataOp(ctx context.Context, key keyspace.Key, req *transport.Request) (OpResult, *transport.Response, error) {
	const ownerMoves = 3
	var res OpResult
	for attempt := 0; ; attempt++ {
		rt, cost, err := n.resolve(ctx, key, req)
		res.Cost += cost
		if err != nil {
			return res, nil, err
		}
		res.Owner = rt.owner
		resp := rt.result
		if resp == nil {
			var sends int
			resp, sends, err = n.callRetry(ctx, rt.owner.Addr, direct(req))
			res.Cost += sends
		}
		if err == nil && !resp.OK && resp.Err == errNotOwner {
			if attempt < ownerMoves {
				if serr := sleepCtx(ctx, 5*time.Millisecond); serr != nil {
					return res, nil, serr
				}
				continue
			}
			return res, nil, fmt.Errorf("p2p: %s: owner of key moved during the op", req.Carry)
		}
		if err != nil || !resp.OK {
			if cerr := ctx.Err(); cerr != nil {
				return res, nil, cerr
			}
			if errors.Is(err, transport.ErrOverloaded) {
				return res, nil, fmt.Errorf("p2p: %s: owner overloaded: %w", req.Carry, err)
			}
			return res, nil, fmt.Errorf("p2p: %s: owner unreachable: %w", req.Carry, err)
		}
		res.Replaced, res.Found, res.Value = resp.Found, resp.Found, resp.Value
		return res, resp, nil
	}
}

// pushReplicas sends one replication request to every chain target in
// parallel — the last push on the caller's goroutine, the others on the
// node's resident legs, so a put at r=2 starts no goroutine and one at
// r=3 hands one push off — returning the number of messages spent and
// how many targets acknowledged the push (summed from the wire ack
// counts, so a misbehaving transport handing back a nil or not-OK
// response never counts). Failures
// are tolerated at this layer — the caller decides whether the ack count
// satisfies its write concern — and a target that missed a push is
// re-filled by the owner's next membership-change or anti-entropy re-sync.
func (n *Node) pushReplicas(ctx context.Context, targets []transport.PeerRef, req *transport.Request) (msgs, acks int) {
	if len(targets) == 0 {
		return 0, 0
	}
	results, msgs := n.fanoutRetry(ctx, addrsOf(targets), req)
	for _, r := range results {
		if r.OK() {
			acks += r.Resp.Acks
		}
	}
	return msgs, acks
}

// Put stores value under key at the key's owner, then pushes copies to the
// owner's replica chain (the owner's replication factor governs how many),
// under the node's configured default write concern. The pushes run in
// parallel — one on the caller's goroutine, the rest on resident legs (see
// pushReplicas) — and are awaited: when Put returns, every reachable chain
// member holds the copy, and the collected acks are checked against the
// write concern; see PutW.
func (n *Node) Put(ctx context.Context, key keyspace.Key, value []byte) (OpResult, error) {
	return n.PutW(ctx, key, value, 0)
}

// PutW is Put with an explicit write concern w: unless at least w members
// of owner+chain acknowledged the write, it returns ErrWriteConcern (as a
// *WriteConcernError carrying acks-got/acks-wanted). The write is not
// rolled back on a shortfall — it holds wherever it was acked and
// anti-entropy re-fills the rest — so the error is a durability report,
// not an undo. w <= 0 uses the node's configured default
// (Config.WriteConcern); w = 1 is the owner's ack alone. A cancelled
// context surfaces as the context's error, never as a fabricated
// write-concern failure.
func (n *Node) PutW(ctx context.Context, key keyspace.Key, value []byte, w int) (OpResult, error) {
	return n.write(ctx, &transport.Request{Op: transport.OpFindOwner, Carry: transport.OpPut, Key: key, Value: value, From: n.self},
		&transport.Request{Op: transport.OpReplicate, Items: []storage.Item{{Key: key, Value: value}}, From: n.self}, w)
}

// write runs req, a find_owner carrying a put or a delete, at the owner of
// req.Key, pushes repl to the owner's replica chain and checks the acks of
// both against the write concern w: PutW's and DeleteW's contract.
func (n *Node) write(ctx context.Context, req, repl *transport.Request, w int) (OpResult, error) {
	res, resp, err := n.dataOp(ctx, req.Key, req)
	if err != nil {
		return res, err
	}
	res.Acks = resp.Acks
	msgs, acks := n.pushReplicas(ctx, resp.Peers, repl)
	res.Cost += msgs
	res.Acks += acks
	if cerr := ctx.Err(); cerr != nil {
		return res, cerr
	}
	if w <= 0 {
		w = n.cfg.WriteConcern
	}
	if res.Acks < w {
		return res, &WriteConcernError{Acks: res.Acks, Want: w}
	}
	return res, nil
}

// Get fetches the value under key from the key's owner. A missing item is
// not an error: Found reports existence. When the owner is unreachable
// (it crashed between routing and the data RPC, or after the route cache
// last heard from it) the read falls back through the owner's replica
// chain, so a crash loses routing entries but no data.
//
// The owner's authority is tombstone-scoped: a miss backed by a tombstone
// is an authoritative delete and ends the read, while a miss with no
// record at all (an owner that lost or never inherited state) falls back
// through the chain like an unreachable owner would. The same rule holds
// along the chain — the first tombstone ends the read as deleted, so a
// staler copy further down can never resurrect the key. When a replica then
// answers with the value, the read nudges the live-but-stale owner to
// read-repair: the owner digest-pulls the arc's divergence back from that
// replica and re-syncs its trailing chain, asynchronously and counted in
// its anti-entropy stats — fallback reads heal the data path they expose.
func (n *Node) Get(ctx context.Context, key keyspace.Key) (OpResult, error) {
	req := &transport.Request{Op: transport.OpFindOwner, Carry: transport.OpGet, Key: key, From: n.self}
	rt, cost, err := n.resolve(ctx, key, req)
	if err != nil {
		return OpResult{Cost: cost}, err
	}
	owner := rt.owner
	res := OpResult{Owner: owner, Cost: cost}
	ownerStale := false // the owner answered with no copy and no tombstone
	answered := false
	var lastErr error
	for i := 0; i <= len(rt.chain); i++ {
		t := owner // then the chain, without building owner+chain per read
		if i > 0 {
			t = rt.chain[i-1]
		}
		if cerr := ctx.Err(); cerr != nil {
			return res, cerr
		}
		// The walk normally brings the owner's answer with it; the direct
		// RPC is for an owner that was found without being asked and for
		// the chain.
		var resp *transport.Response
		var err error
		if i == 0 && rt.result != nil {
			resp = rt.result
		} else {
			call := n.callRetry
			if i == 0 {
				// The owner read rides out transient unreachability before
				// the chain walk: with r=1 there are no replicas, and a
				// chain member honestly reporting "absent" would turn one
				// lost packet into a wrong not-found.
				call = n.readRetry
			}
			var sends int
			resp, sends, err = call(ctx, t.Addr, direct(req))
			res.Cost += sends
		}
		if err != nil || !resp.OK {
			if cerr := ctx.Err(); cerr != nil {
				return res, cerr
			}
			// Unreachable — or still shedding after the retry. Either way
			// the right move for a read is the same: fall back along the
			// chain, which holds the same data.
			lastErr = err
			continue
		}
		if resp.Found {
			res.Owner, res.Found, res.Value = t, true, resp.Value
			if i > 0 && ownerStale {
				// A replica holds state the live owner has no record of:
				// one cheap nudge makes the owner pull the divergence.
				res.Cost += n.nudgeRepair(ctx, owner, t)
			}
			return res, nil
		}
		if i == 0 {
			if resp.Deleted {
				// Tombstoned at the owner: authoritatively deleted, no
				// chain walk — a replica's stale copy must not resurrect.
				return res, nil
			}
			ownerStale = true
			continue
		}
		if resp.Deleted {
			// A chain tombstone is delete knowledge too: with the owner
			// dead or recordless it ends the read, or a staler copy
			// further down the chain would resurrect the key. A stale
			// owner is nudged so it adopts the tombstone as well.
			if ownerStale {
				res.Cost += n.nudgeRepair(ctx, owner, t)
			}
			return res, nil
		}
		answered = true // a live replica without the item: keep walking
	}
	if answered || ownerStale {
		// Every reachable copy agrees the item is absent.
		return res, nil
	}
	return res, fmt.Errorf("p2p: get: owner and replicas unreachable: %w", lastErr)
}

// nudgeRepair asks owner to read-repair its arc from replica and returns
// the messages that took: none when the reader is the owner itself.
func (n *Node) nudgeRepair(ctx context.Context, owner, replica transport.PeerRef) int {
	_, sends, _ := n.callRetry(ctx, owner.Addr, &transport.Request{Op: transport.OpReadRepair, From: replica})
	return sends
}

// Delete removes the item under key at the key's owner and propagates the
// delete along the owner's replica chain, under the node's configured
// default write concern. Found reports whether it existed.
func (n *Node) Delete(ctx context.Context, key keyspace.Key) (OpResult, error) {
	return n.DeleteW(ctx, key, 0)
}

// DeleteW is Delete with an explicit write concern w, under the same
// contract as PutW: fewer than w acks from owner+chain returns
// ErrWriteConcern while the delete holds wherever it was acked (and its
// tombstone propagates to the rest via anti-entropy).
func (n *Node) DeleteW(ctx context.Context, key keyspace.Key, w int) (OpResult, error) {
	return n.write(ctx, &transport.Request{Op: transport.OpFindOwner, Carry: transport.OpDelete, Key: key, From: n.self},
		&transport.Request{Op: transport.OpReplicateDel, Key: key, From: n.self}, w)
}

// Rewire rebuilds the node's long-range links with the Oscar construction
// (core.Wire): estimate partitions by remote restricted walks, release the
// current links, then acquire up to MaxOut links with the admission and
// power-of-two rules. A rebuild that cannot start — it finds no partition
// borders, or ctx is done once the walks end — keeps the current links,
// and every target keeps its in-link. The node routes on its ring alone
// between the release and the end of the acquisition. It returns
// ctx.Err().
//
// The pass draws from a stream split off the node's at its start, so the
// overload backoff, which draws from the node's stream meanwhile, does not
// move its links. Stabilisation draws nothing from that stream.
func (n *Node) Rewire(ctx context.Context) error {
	return n.rewire(ctx, &lockedRand{r: n.rnd.Split()})
}

// rewire is Rewire drawing from rnd.
func (n *Node) rewire(ctx context.Context, rnd *lockedRand) error {
	out, _, err := core.Wire(ctx, wiring{n}, core.DefaultConfig(), rnd)
	if out != nil {
		n.mu.Lock()
		n.out = out
		n.mu.Unlock()
	}
	return err
}

// wiring is the node as the construction's substrate (core.Substrate):
// every question about another peer is one RPC, whose neighbours answer
// carries that peer's load, a link or unlink request retries once on
// overload, and the node's own neighbours are read locally, so a walk
// that steps onto its own node sends nothing.
type wiring struct{ n *Node }

func (w wiring) Self() transport.PeerRef              { return w.n.self }
func (w wiring) Key(p transport.PeerRef) keyspace.Key { return p.Key }
func (w wiring) MaxOut() int                          { return w.n.cfg.MaxOut }
func (w wiring) Parallel(k int, fn func(i int))       { w.n.parallel(k, fn) }

func (w wiring) Successor() transport.PeerRef {
	w.n.mu.Lock()
	defer w.n.mu.Unlock()
	return w.n.succLocked()
}

func (w wiring) LocalNeighbors() []sampling.Neighbor[transport.PeerRef] {
	w.n.mu.Lock()
	defer w.n.mu.Unlock()
	return keyed(w.n.neighborsLocked().Peers)
}

func (w wiring) Neighbors(ctx context.Context, p transport.PeerRef) ([]sampling.Neighbor[transport.PeerRef], sampling.Load, error) {
	resp, err := answered(w.n.tr.CallCtx(ctx, p.Addr, &transport.Request{Op: transport.OpNeighbors}))
	if err != nil {
		return nil, sampling.Load{}, err
	}
	return keyed(resp.Peers), sampling.Load{In: resp.InDeg, Max: resp.MaxIn}, nil
}

// keyed lists peers as a walk's neighbours.
func keyed(peers []transport.PeerRef) []sampling.Neighbor[transport.PeerRef] {
	out := make([]sampling.Neighbor[transport.PeerRef], len(peers))
	for i, p := range peers {
		out[i] = sampling.Neighbor[transport.PeerRef]{Peer: p, Key: p.Key}
	}
	return out
}

// Release sends the unlinks in parallel, each retried once if the target
// sheds it (callRetry): a shed unlink never ran, and would leave the
// target holding the in-link against its cap. They precede the new links,
// so no target counts this node twice.
func (w wiring) Release(ctx context.Context) []transport.PeerRef {
	n := w.n
	n.mu.Lock()
	old := n.out
	n.out = nil
	n.mu.Unlock()
	req := &transport.Request{Op: transport.OpUnlink, From: n.self}
	n.parallel(len(old), func(i int) { _, _, _ = n.callRetry(ctx, old[i].Addr, req) })
	return old
}

// Link registers the in-link at p. The node routes on the new links only
// once Rewire installs them all.
func (w wiring) Link(ctx context.Context, p transport.PeerRef) error {
	resp, _, err := w.n.callRetry(ctx, p.Addr, &transport.Request{Op: transport.OpLink, From: w.n.self})
	_, err = answered(resp, err)
	return err
}

// answered turns a call's refusal (an answer without OK) into an error.
func answered(resp *transport.Response, err error) (*transport.Response, error) {
	if err == nil && !resp.OK {
		err = fmt.Errorf("p2p: %s", resp.Err)
	}
	return resp, err
}
