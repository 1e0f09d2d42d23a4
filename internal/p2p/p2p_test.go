package p2p

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

var bg = context.Background()

// expectedOwner computes the true owner of key among the given nodes.
func expectedOwner(nodes []*Node, key keyspace.Key) transport.PeerRef {
	type ref struct {
		key  keyspace.Key
		addr transport.Addr
	}
	var alive []ref
	for _, n := range nodes {
		if !n.isDown() {
			alive = append(alive, ref{n.Self().Key, n.Self().Addr})
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].key < alive[j].key })
	for _, r := range alive {
		if r.key >= key {
			return transport.PeerRef{Addr: r.addr, Key: r.key}
		}
	}
	return transport.PeerRef{Addr: alive[0].addr, Key: alive[0].key} // wrap
}

func newTestCluster(t *testing.T, size int) *Cluster {
	t.Helper()
	c, err := NewCluster(bg, ClusterConfig{Size: size, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestSingleNode(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Nodes[0]
	if n.Succ().Addr != n.Self().Addr || n.Pred().Addr != n.Self().Addr {
		t.Error("singleton must point at itself")
	}
	owner, cost, err := n.Lookup(bg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if owner.Addr != n.Self().Addr || cost != 0 {
		t.Errorf("owner=%v cost=%d", owner, cost)
	}
}

func TestRingFormation(t *testing.T) {
	c := newTestCluster(t, 24)
	// Walk successors from node 0: must visit all 24 nodes in key order.
	start := c.Nodes[0].Self()
	visited := map[transport.Addr]bool{start.Addr: true}
	cur := c.Nodes[0].Succ()
	var keys []keyspace.Key
	for cur.Addr != start.Addr {
		if visited[cur.Addr] {
			t.Fatalf("ring short-circuits at %s after %d nodes", cur.Addr, len(visited))
		}
		visited[cur.Addr] = true
		keys = append(keys, cur.Key)
		resp, err := c.Nodes[0].tr.CallCtx(bg, cur.Addr, &transport.Request{Op: transport.OpSuccList})
		if err != nil || !resp.OK || len(resp.Peers) == 0 {
			t.Fatalf("succ_list %s: %+v, %v", cur.Addr, resp, err)
		}
		cur = resp.Peers[0]
	}
	if len(visited) != 24 {
		t.Fatalf("ring covers %d of 24 nodes", len(visited))
	}
	// Keys along the walk from start wrap exactly once: the sequence of
	// clockwise distances from start must be increasing.
	for i := 1; i < len(keys); i++ {
		if start.Key.Distance(keys[i-1]) >= start.Key.Distance(keys[i]) {
			t.Fatal("ring order broken")
		}
	}
}

func TestLookupCorrectness(t *testing.T) {
	c := newTestCluster(t, 32)
	for i := 0; i < 100; i++ {
		key := keyspace.FromFloat(float64(i) / 100)
		want := expectedOwner(c.Nodes, key)
		got, _, err := c.Nodes[i%len(c.Nodes)].Lookup(bg, key)
		if err != nil {
			t.Fatalf("lookup %v: %v", key, err)
		}
		if got.Addr != want.Addr {
			t.Errorf("lookup %v: owner %s (key %v), want %s (key %v)",
				key, got.Addr, got.Key, want.Addr, want.Key)
		}
	}
}

func TestRewireEstablishesLinks(t *testing.T) {
	c := newTestCluster(t, 40)
	total := 0
	for _, n := range c.Nodes {
		links := n.OutLinks()
		total += len(links)
		for _, ref := range links {
			if ref.Addr == n.Self().Addr {
				t.Error("self-link")
			}
		}
	}
	if total < 40*4 {
		t.Errorf("only %d long-range links across the cluster", total)
	}
	// In-degree caps respected.
	for _, n := range c.Nodes {
		if n.InDegree() > n.cfg.MaxIn {
			t.Errorf("node exceeds in-cap: %d > %d", n.InDegree(), n.cfg.MaxIn)
		}
	}
}

// TestRewireCancelledKeepsLinks cancels a wired node's rewire a few
// calls in, while it is still sampling partitions: the node must keep
// routing on its current long links, and none of their targets may lose
// its in-link.
func TestRewireCancelledKeepsLinks(t *testing.T) {
	c := newTestCluster(t, 24)
	ct := &cancellingTransport{Transport: c.Fabric.Endpoint(), cancel: func() {}, after: 1 << 60}
	n := mustNode(t, ct, Config{Key: keyspace.FromFloat(0.001), MaxIn: 8, MaxOut: 8, Seed: 5})
	defer n.Close()
	if err := n.Join(bg, c.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*Node(nil), c.Nodes...), n)
	for round := 0; round < 2; round++ {
		for _, m := range all {
			m.Stabilize(bg)
		}
	}
	if err := n.Rewire(bg); err != nil {
		t.Fatal(err)
	}
	links := n.OutLinks()
	if len(links) == 0 {
		t.Fatal("test setup: the node wired no long links")
	}
	inDeg := make(map[transport.Addr]int)
	for _, ref := range links {
		inDeg[ref.Addr] = nodeByAddr(t, all, ref.Addr).InDegree()
	}

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ct.cancel = cancel
	ct.calls.Store(0)
	ct.after = 3
	if err := n.Rewire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rewire returned %v, want context.Canceled", err)
	}
	if got := n.OutLinks(); !slices.Equal(got, links) {
		t.Errorf("cancelled rewire left out-links %v, want %v", got, links)
	}
	for addr, want := range inDeg {
		if got := nodeByAddr(t, all, addr).InDegree(); got != want {
			t.Errorf("target %s in-degree %d after the cancelled rewire, want %d", addr, got, want)
		}
	}
}

func TestPutGetAcrossCluster(t *testing.T) {
	c := newTestCluster(t, 24)
	for i := 0; i < 50; i++ {
		key := keyspace.FromFloat(float64(i) / 50)
		val := []byte(fmt.Sprintf("v%d", i))
		put, err := c.Nodes[i%24].Put(bg, key, val)
		if err != nil {
			t.Fatal(err)
		}
		if put.Owner.Addr != expectedOwner(c.Nodes, key).Addr {
			t.Fatalf("put %v reported owner %s, want %s", key, put.Owner.Addr, expectedOwner(c.Nodes, key).Addr)
		}
		got, err := c.Nodes[(i+7)%24].Get(bg, key)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Found || !bytes.Equal(got.Value, val) {
			t.Fatalf("get %v from another node = %q, %v", key, got.Value, got.Found)
		}
	}
}

func TestPutReportsReplacement(t *testing.T) {
	c := newTestCluster(t, 8)
	key := keyspace.FromFloat(0.3)
	res, err := c.Nodes[1].Put(bg, key, []byte("a"))
	if err != nil || res.Replaced {
		t.Fatalf("first put: %+v err=%v", res, err)
	}
	res, err = c.Nodes[5].Put(bg, key, []byte("b"))
	if err != nil || !res.Replaced {
		t.Fatalf("second put: %+v err=%v", res, err)
	}
}

func TestDeleteAcrossCluster(t *testing.T) {
	c := newTestCluster(t, 16)
	key := keyspace.FromFloat(0.62)
	if _, err := c.Nodes[2].Put(bg, key, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	res, err := c.Nodes[9].Delete(bg, key)
	if err != nil || !res.Found {
		t.Fatalf("delete: %+v err=%v", res, err)
	}
	if got, err := c.Nodes[4].Get(bg, key); err != nil || got.Found {
		t.Fatalf("item survived delete: %+v err=%v", got, err)
	}
	// Deleting again reports absence, not an error.
	res, err = c.Nodes[0].Delete(bg, key)
	if err != nil || res.Found {
		t.Fatalf("second delete: %+v err=%v", res, err)
	}
}

func TestScanAcrossShards(t *testing.T) {
	c := newTestCluster(t, 16)
	for i := 0; i < 40; i++ {
		if _, err := c.Nodes[0].Put(bg, keyspace.FromFloat(float64(i)/40), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := scanAll(bg, c.Nodes[5], keyspace.FromFloat(0.25), keyspace.FromFloat(0.75), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 20 { // fractions 10/40 .. 29/40
		t.Fatalf("range returned %d items, want 20", len(res.Items))
	}
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i-1].Key >= res.Items[i].Key {
			t.Fatal("range results out of order")
		}
	}
	if res.PeersScanned < 1 {
		t.Errorf("implausible scan stats: %+v", res)
	}
}

// TestScanWrapAround exercises a range crossing the top of the identifier
// circle (start > end), including the limit early-stop path.
func TestScanWrapAround(t *testing.T) {
	c := newTestCluster(t, 12)
	fracs := []float64{0.85, 0.92, 0.97, 0.03, 0.08, 0.5}
	for _, f := range fracs {
		if _, err := c.Nodes[0].Put(bg, keyspace.FromFloat(f), []byte(fmt.Sprint(f))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := scanAll(bg, c.Nodes[3], keyspace.FromFloat(0.8), keyspace.FromFloat(0.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 5 { // all but 0.5
		t.Fatalf("wrap-around range returned %d items, want 5: %v", len(res.Items), res.Items)
	}
	// Clockwise order from 0.8: distances from the range start must increase.
	start := keyspace.FromFloat(0.8)
	for i := 1; i < len(res.Items); i++ {
		if start.Distance(res.Items[i-1].Key) >= start.Distance(res.Items[i].Key) {
			t.Fatal("wrap-around results out of clockwise order")
		}
	}
	if res.PeersScanned < 2 {
		t.Errorf("wrap-around scan covered %d peers; expected the walk to cross shards", res.PeersScanned)
	}

	// Limit stops the scan early, keeping the first items clockwise.
	lim, err := scanAll(bg, c.Nodes[7], keyspace.FromFloat(0.8), keyspace.FromFloat(0.1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Items) != 2 {
		t.Fatalf("limit ignored: %d items", len(lim.Items))
	}
	for i, want := range []float64{0.85, 0.92} {
		if lim.Items[i].Key != keyspace.FromFloat(want) {
			t.Errorf("limited item %d = %v, want key at %v", i, lim.Items[i].Key, want)
		}
	}
	if lim.Cost > res.Cost {
		t.Errorf("limited scan cost %d exceeds full scan cost %d", lim.Cost, res.Cost)
	}
}

func TestJoinMigratesItems(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys []keyspace.Key
	for i := 0; i < 60; i++ {
		k := keyspace.FromFloat(float64(i) / 60)
		keys = append(keys, k)
		if _, err := c.Nodes[0].Put(bg, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A new node joins; items in its arc must move to it and stay readable.
	newbie := mustNode(t, c.Fabric.Endpoint(), Config{Key: keyspace.FromFloat(0.5), MaxIn: 16, MaxOut: 16, Seed: 99})
	if err := newbie.Join(bg, c.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	c.Nodes = append(c.Nodes, newbie)
	c.StabilizeAll(bg)
	for i, k := range keys {
		got, err := c.Nodes[2].Get(bg, k)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Found || got.Value[0] != byte(i) {
			t.Fatalf("item %d lost after join", i)
		}
	}
	if newbie.StoredItems() == 0 {
		t.Error("joining node received no items despite owning an arc")
	}
}

// TestSuccessorListMaintained verifies that stabilisation fills every
// node's successor list with its true ring successors, in ring order.
func TestSuccessorListMaintained(t *testing.T) {
	c := newTestCluster(t, 16)
	// A few extra rounds let the lists propagate (each round extends a
	// node's list by its successor's knowledge).
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	// True ring order per node: sort all keys, walk clockwise from self.
	for _, n := range c.Nodes {
		list := n.SuccList()
		if len(list) < minSuccList {
			t.Fatalf("node %s has %d successor-list entries, want >= %d", n.Self().Addr, len(list), minSuccList)
		}
		cur := n.Self()
		for i, p := range list {
			want := expectedOwner(c.Nodes, cur.Key+1)
			if p.Addr != want.Addr {
				t.Fatalf("node %s list[%d] = %s, want %s", n.Self().Addr, i, p.Addr, want.Addr)
			}
			cur = p
		}
	}
}

// TestAdoptSuccessorFromList kills two consecutive successors of a node
// and verifies stabilisation walks the successor list to the third — no
// long-range-link guessing involved.
func TestAdoptSuccessorFromList(t *testing.T) {
	c := newTestCluster(t, 12)
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	n := c.Nodes[0]
	list := n.SuccList()
	if len(list) < 3 {
		t.Fatalf("need 3 list entries, have %d", len(list))
	}
	byAddr := map[transport.Addr]*Node{}
	for _, m := range c.Nodes {
		byAddr[m.Self().Addr] = m
	}
	_ = byAddr[list[0].Addr].Close()
	_ = byAddr[list[1].Addr].Close()
	n.Stabilize(bg)
	if got := n.Succ().Addr; got != list[2].Addr {
		t.Fatalf("after killing two successors, succ = %s, want list[2] = %s", got, list[2].Addr)
	}
}

// TestReplicatedPutSurvivesOwnerCrash is the p2p-level durability core:
// with r=3, every key written before its owner crashes is still readable
// after the ring heals — served from a promoted replica.
func TestReplicatedPutSurvivesOwnerCrash(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 12, Seed: 21, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}

	const items = 36
	for i := 0; i < items; i++ {
		if _, err := c.Nodes[0].Put(bg, keyspace.FromFloat(float64(i)/items), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the owner of one key — any node but the querying one.
	var owner transport.PeerRef
	for i := 0; i < items; i++ {
		owner = expectedOwner(c.Nodes, keyspace.FromFloat(float64(i)/items))
		if owner.Addr != c.Nodes[0].Self().Addr {
			break
		}
	}
	if owner.Addr == c.Nodes[0].Self().Addr {
		t.Fatal("test setup: every key is owned by the querying node")
	}
	for _, n := range c.Nodes {
		if n.Self().Addr == owner.Addr {
			_ = n.Close()
		}
	}
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}

	for i := 0; i < items; i++ {
		k := keyspace.FromFloat(float64(i) / items)
		got, err := c.Nodes[0].Get(bg, k)
		if err != nil {
			t.Fatalf("get %d after owner crash: %v", i, err)
		}
		if !got.Found || got.Value[0] != byte(i) {
			t.Fatalf("item %d lost after owner crash (found=%v)", i, got.Found)
		}
	}
}

// TestReplicatedDeletePropagates proves a delete clears the replica chain:
// after the owner crashes, the deleted item must not resurrect from a
// stale copy.
func TestReplicatedDeletePropagates(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 10, Seed: 33, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	key := keyspace.FromFloat(0.44)
	if _, err := c.Nodes[1].Put(bg, key, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Nodes[2].Delete(bg, key); err != nil || !res.Found {
		t.Fatalf("delete: %+v err=%v", res, err)
	}
	owner := expectedOwner(c.Nodes, key)
	for _, n := range c.Nodes {
		if n.Self().Addr == owner.Addr {
			_ = n.Close()
		}
	}
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	got, err := c.Nodes[1].Get(bg, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Found {
		t.Fatalf("deleted item resurrected from a replica: %q", got.Value)
	}
}

// TestCountPeers checks the ring-walk membership count: exact on a small
// healthy ring, shrinking after a crash heals, -1 when the cap is too low.
func TestCountPeers(t *testing.T) {
	c := newTestCluster(t, 9)
	if got := c.Nodes[3].CountPeers(bg, 64); got != 9 {
		t.Fatalf("CountPeers = %d, want 9", got)
	}
	if got := c.Nodes[3].CountPeers(bg, 4); got != -1 {
		t.Fatalf("CountPeers with low cap = %d, want -1", got)
	}
	_ = c.Nodes[5].Close()
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	if got := c.Nodes[3].CountPeers(bg, 64); got != 8 {
		t.Fatalf("CountPeers after crash+heal = %d, want 8", got)
	}
}

func TestCrashAndHeal(t *testing.T) {
	c := newTestCluster(t, 24)
	// Kill a third of the nodes (not node 0, our query entry point).
	killed := 0
	for i := 1; i < len(c.Nodes) && killed < 8; i += 3 {
		_ = c.Nodes[i].Close()
		killed++
	}
	// A few stabilisation rounds heal the ring.
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	for i := 0; i < 50; i++ {
		key := keyspace.FromFloat(float64(i) / 50)
		want := expectedOwner(c.Nodes, key)
		got, _, err := c.Nodes[0].Lookup(bg, key)
		if err != nil {
			t.Fatalf("lookup %v after churn: %v", key, err)
		}
		if got.Addr != want.Addr {
			t.Errorf("lookup %v: owner %s, want %s", key, got.Addr, want.Addr)
		}
	}
}

// cancellingTransport wraps a Transport and cancels the given context after
// a fixed number of CallCtx invocations — a deterministic way to cancel a
// lookup mid-walk or a rewire mid-discovery.
type cancellingTransport struct {
	transport.Transport
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (c *cancellingTransport) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Transport.CallCtx(ctx, addr, req)
}

// TestLookupCancelledBeforeCall proves a context cancelled before a
// multi-hop lookup aborts with ctx.Err() without issuing a single RPC.
func TestLookupCancelledBeforeCall(t *testing.T) {
	c := newTestCluster(t, 24)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, cost, err := c.Nodes[0].Lookup(ctx, keyspace.FromFloat(0.73))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lookup returned %v, want context.Canceled", err)
	}
	if cost != 0 {
		t.Errorf("cancelled lookup still spent %d messages", cost)
	}
}

// TestLookupCancelledMidWalk cancels the context after the second hop of a
// multi-hop lookup and verifies the walk stops promptly with ctx.Err()
// instead of backtracking through the "failed" hop.
func TestLookupCancelledMidWalk(t *testing.T) {
	c := newTestCluster(t, 48)
	// Build a fresh node whose outgoing transport we can instrument; it
	// joins the existing overlay, then looks up a far-away key.
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ct := &cancellingTransport{Transport: c.Fabric.Endpoint(), cancel: cancel, after: 1 << 60}
	n := mustNode(t, ct, Config{Key: keyspace.FromFloat(0.001), MaxIn: 8, MaxOut: 8, Seed: 5})
	if err := n.Join(bg, c.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Pick a key provably owned by a remote peer, so the lookup needs at
	// least two transport calls (one on self for the first hop, one remote).
	all := append(append([]*Node(nil), c.Nodes...), n)
	var key keyspace.Key
	for f := 0.05; f < 1; f += 0.05 {
		k := keyspace.FromFloat(f)
		if owner := expectedOwner(all, k); owner.Addr != n.Self().Addr && owner.Addr != n.Succ().Addr {
			key = k
			break
		}
	}

	// Arm the trigger: cancel on the 2nd call from now.
	ct.calls.Store(0)
	ct.after = 2
	_, _, err := n.Lookup(ctx, key)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-walk cancellation returned %v, want context.Canceled", err)
	}
	// The walk must stop at (or immediately after) the cancelling call: the
	// per-hop ctx check forbids starting new hops, and the in-memory
	// transport rejects cancelled calls at entry, so at most one extra call
	// can slip in between Add and cancel.
	if calls := ct.calls.Load(); calls > ct.after+1 {
		t.Errorf("lookup kept issuing RPCs after cancellation: %d calls", calls)
	}
}

// TestScanPageBounds pins a scan page's bounds: an owner answers with all
// it holds of the range up to the request's limit, maxScanItems items or
// PageMaxBytes of values, whichever comes first, and More is exact, so
// the page after a full one is never empty. The first page rides on the
// walk (a carried find_owner), later ones come by OpScan, so both paths
// are checked.
func TestScanPageBounds(t *testing.T) {
	cases := []struct {
		name             string
		items, valueSize int
		want             int   // NextPage's item cap, on every call
		pages            []int // the item counts of the pages, in order
	}{
		{"one page", 3000, 100, 0, []int{3000}},
		{"item cap", maxScanItems + 1, 8, 0, []int{maxScanItems, 1}},
		{"item cap exact", maxScanItems, 8, 0, []int{maxScanItems}},
		{"byte cap 4 KiB values", 1025, 4 << 10, 0, []int{1024, 1}},
		{"byte cap 64 KiB values", 65, 64 << 10, 0, []int{64, 1}},
		{"limit", maxScanItems + 1, 8, 5000, []int{5000, maxScanItems + 1 - 5000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Nodes at 0, 1/4, 1/2 and 3/4: the node at 1/2 owns the
			// whole range [0.3, 0.45), and node 0 scans it.
			nodes, trs, _ := carryRing(t, 4, false, nil)
			owner := nodes[2]
			value := make([]byte, tc.valueSize)
			keys := make([]keyspace.Key, tc.items)
			owner.mu.Lock()
			for i := range keys {
				keys[i] = keyspace.FromFloat(0.3 + 0.1*float64(i)/float64(tc.items))
				owner.store.Put(keys[i], value)
			}
			owner.mu.Unlock()

			s := nodes[0].NewScanSession(keyspace.FromFloat(0.3), keyspace.FromFloat(0.45))
			cursor, got := keys[0], 0
			for p, want := range tc.pages {
				chunk, err := s.NextPage(bg, cursor, tc.want)
				if err != nil {
					t.Fatalf("page %d: %v", p, err)
				}
				last := p == len(tc.pages)-1
				if len(chunk.Items) != want || chunk.Done != last {
					t.Fatalf("page %d = %d items, done %v; want %d items, done %v",
						p, len(chunk.Items), chunk.Done, want, last)
				}
				for i, it := range chunk.Items {
					if it.Key != keys[got+i] {
						t.Fatalf("page %d item %d = %v, want %v", p, i, it.Key, keys[got+i])
					}
				}
				got += want
				cursor = chunk.Items[want-1].Key + 1
			}
			if n := trs[2].get(trs[2].ran, transport.OpScan); n != 1 {
				t.Errorf("the owner ran %d carried scan pages, want 1", n)
			}
			if n, want := trs[0].get(trs[0].sent, transport.OpScan), len(tc.pages)-1; n != want {
				t.Errorf("the scan sent %d OpScan calls, want %d", n, want)
			}
		})
	}
}

func TestScanCancelled(t *testing.T) {
	c := newTestCluster(t, 16)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, err := scanAll(ctx, c.Nodes[0], keyspace.FromFloat(0.1), keyspace.FromFloat(0.9), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
}

func TestClusterOverTCP(t *testing.T) {
	// A small live cluster on loopback sockets: overlay formation, data
	// operations and a crash, all over real TCP.
	const size = 8
	var nodes []*Node
	for i := 0; i < size; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := mustNode(t, ep, Config{
			Key:    keyspace.FromFloat(float64(i)/size + 0.01),
			MaxIn:  8,
			MaxOut: 8,
			Seed:   int64(i),
		})
		if i > 0 {
			if err := n.Join(bg, nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			n.Stabilize(bg)
		}
	}
	for _, n := range nodes {
		if err := n.Rewire(bg); err != nil {
			t.Fatal(err)
		}
	}
	key := keyspace.FromFloat(0.42)
	if _, err := nodes[3].Put(bg, key, []byte("over-tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[6].Get(bg, key)
	if err != nil || !got.Found || string(got.Value) != "over-tcp" {
		t.Fatalf("tcp get = %+v %v", got, err)
	}
	if res, err := nodes[2].Delete(bg, key); err != nil || !res.Found {
		t.Fatalf("tcp delete: %+v err=%v", res, err)
	}
	// Crash one node; the ring heals and lookups still succeed.
	_ = nodes[5].Close()
	for round := 0; round < 4; round++ {
		for _, n := range nodes {
			if !n.isDown() {
				n.Stabilize(bg)
			}
		}
	}
	if _, _, err := nodes[1].Lookup(bg, keyspace.FromFloat(0.9)); err != nil {
		t.Fatalf("lookup after tcp crash: %v", err)
	}
}
