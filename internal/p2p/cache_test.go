package p2p

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// pickRemoteKey returns a key whose owner is not the given requester, so
// cache tests can crash or displace the owner without taking the
// requester down with it.
func pickRemoteKey(t *testing.T, c *Cluster, requester *Node) (keyspace.Key, transport.PeerRef) {
	t.Helper()
	for i := 0; i < 64; i++ {
		k := keyspace.FromFloat(float64(i) / 64)
		owner := expectedOwner(c.Nodes, k)
		if owner.Addr != requester.Self().Addr {
			return k, owner
		}
	}
	t.Fatal("test setup: every key is owned by the requester")
	return 0, transport.PeerRef{}
}

// TestRouteCacheServesWrites pins the cache's happy path: a second write
// to the same key reuses the cached route (counted as a hit) and spends
// no more messages than the first, which paid for the full walk.
func TestRouteCacheServesWrites(t *testing.T) {
	c := newTestCluster(t, 16)
	n := c.Nodes[0]
	k, _ := pickRemoteKey(t, c, n)

	first, err := n.Put(bg, k, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Put(bg, k, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cost > first.Cost {
		t.Errorf("cached write cost %d exceeds uncached cost %d", second.Cost, first.Cost)
	}
	if st := n.State(); st.RouteHits == 0 {
		t.Errorf("route cache recorded no hit: %+v", st)
	}
	got, err := n.Get(bg, k)
	if err != nil || !got.Found || !bytes.Equal(got.Value, []byte("v2")) {
		t.Fatalf("get after cached write: found=%v value=%q err=%v", got.Found, got.Value, err)
	}
}

// ownerArc is the arc a node owns, as its Found answers carry it.
func ownerArc(t *testing.T, owner *Node) keyspace.Range {
	t.Helper()
	st := owner.State()
	if !st.HasArc {
		t.Fatalf("%s has no arc", owner.Self().Addr)
	}
	return st.Arc
}

// TestRouteCacheArcHit pins what caching by the owner's arc buys: once one
// op has walked to an owner, a put and a get on a different key of the
// same arc each go straight there — one find_owner carrying the op, no
// walk through the owner's predecessor. A get right after the reader's
// own overwrite is still one message, and Cost counts it.
func TestRouteCacheArcHit(t *testing.T) {
	nodes, trs, _ := countedRing(t, 16, Config{}, true, true, nil)
	entry, tr, owner := nodes[0], trs[0], nodes[6]
	k, other := keyspace.FromFloat(5.3/16), keyspace.FromFloat(5.7/16)
	for _, key := range []keyspace.Key{k, other} {
		if got := expectedOwner(nodes, key); got.Addr != owner.Self().Addr {
			t.Fatalf("test setup: %v is owned by %s, want %s", key, got.Addr, owner.Self().Addr)
		}
	}
	if _, err := entry.Put(bg, k, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if ent, ok := entry.routes.Get(other); !ok || ent.owner.Addr != owner.Self().Addr || ent.arc != ownerArc(t, owner) {
		t.Fatalf("after one put the cache holds %+v, %v for another key; want %s under its arc %v", ent, ok, owner.Self().Addr, ownerArc(t, owner))
	}
	hits := entry.State().RouteHits

	check := func(op transport.Op, res OpResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if res.Cost != 1 || tr.calls() != 1 || res.Owner.Addr != owner.Self().Addr {
			t.Errorf("%s on another key of the arc cost %d and sent %d calls to %s; want 1 and 1 to %s", op, res.Cost, tr.calls(), res.Owner.Addr, owner.Self().Addr)
		}
		if carried := tr.get(tr.sentCarry, op); carried != 1 {
			t.Errorf("%s sent %d find_owner calls carrying it, want 1", op, carried)
		}
		tr.reset()
	}
	tr.reset()
	for _, v := range []string{"second", "third"} {
		put, err := entry.Put(bg, other, []byte(v))
		check(transport.OpPut, put, err)
		get, err := entry.Get(bg, other)
		check(transport.OpGet, get, err)
		if !get.Found || string(get.Value) != v {
			t.Errorf("get = %+v, want %s", get, v)
		}
	}
	if st := entry.State(); st.RouteHits != hits+4 {
		t.Errorf("route hits %d → %d, want four more", hits, st.RouteHits)
	}
}

// TestRouteCacheArcSplitByJoin splices a joiner into an arc the requester
// has cached. Ops on keys of both halves must land on their true owners
// with the right values, whether a write or a read meets the stale arc
// first, and the cache must end up holding the two halves.
func TestRouteCacheArcSplitByJoin(t *testing.T) {
	for _, writeFirst := range []bool{true, false} {
		name := "read first"
		if writeFirst {
			name = "write first"
		}
		t.Run(name, func(t *testing.T) {
			nodes, _, fabric := countedRing(t, 8, Config{}, true, true, nil)
			entry, old := nodes[0], nodes[4]
			lo, hi := keyspace.FromFloat(3.25/8), keyspace.FromFloat(3.75/8)
			for key, v := range map[keyspace.Key]string{lo: "lo1", hi: "hi1"} {
				if _, err := entry.Put(bg, key, []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			if ent, ok := entry.routes.Get(lo); !ok || ent.owner.Addr != old.Self().Addr || !ent.arc.Contains(hi) {
				t.Fatalf("test setup: cache holds %+v, %v; want %s's arc over both keys", ent, ok, old.Self().Addr)
			}

			// The joiner takes the lower half. Only its neighbours
			// stabilise, so the entry node keeps its stale arc.
			joiner := mustNode(t, fabric.Endpoint(), Config{Key: keyspace.FromFloat(3.5 / 8), MaxIn: 8, MaxOut: 8, Seed: 99})
			t.Cleanup(func() { _ = joiner.Close() })
			if err := joiner.Join(bg, old.Self().Addr); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				for _, n := range []*Node{nodes[3], joiner, old} {
					n.Stabilize(bg)
				}
			}
			if ent, ok := entry.routes.Get(lo); !ok || ent.owner.Addr != old.Self().Addr {
				t.Fatalf("test setup: the join flushed the entry's cache (%+v, %v)", ent, ok)
			}

			owners := map[keyspace.Key]*Node{lo: joiner, hi: old}
			put := func(key keyspace.Key, v string) {
				t.Helper()
				res, err := entry.Put(bg, key, []byte(v))
				if err != nil {
					t.Fatalf("put %v: %v", key, err)
				}
				if res.Owner.Addr != owners[key].Self().Addr {
					t.Errorf("put %v landed on %s, want %s", key, res.Owner.Addr, owners[key].Self().Addr)
				}
				if ks := owners[key].KeyState(key); !ks.HasPrimary || string(ks.Primary) != v {
					t.Errorf("owner of %v holds %q, %v; want %q", key, ks.Primary, ks.HasPrimary, v)
				}
			}
			get := func(key keyspace.Key, want string) {
				t.Helper()
				res, err := entry.Get(bg, key)
				if err != nil {
					t.Fatalf("get %v: %v", key, err)
				}
				if !res.Found || string(res.Value) != want || res.Owner.Addr != owners[key].Self().Addr {
					t.Errorf("get %v = %q (found %v) from %s; want %q from %s", key, res.Value, res.Found, res.Owner.Addr, want, owners[key].Self().Addr)
				}
			}
			if writeFirst {
				put(lo, "lo2")
				put(hi, "hi2")
				get(lo, "lo2")
				get(hi, "hi2")
			} else {
				get(lo, "lo1")
				get(hi, "hi1")
				put(lo, "lo2")
				put(hi, "hi2")
			}
			for key, owner := range owners {
				if ent, ok := entry.routes.Get(key); !ok || ent.owner.Addr != owner.Self().Addr || ent.arc != ownerArc(t, owner) {
					t.Errorf("cache for %v holds %+v, %v; want %s under %v", key, ent, ok, owner.Self().Addr, ownerArc(t, owner))
				}
			}
		})
	}
}

// TestRouteCacheNoArcWithoutPred: an owner whose predecessor slot is
// cleared claims the whole circle when routing, so its Found answer must
// carry no arc, and the requester caches the one key it resolved.
func TestRouteCacheNoArcWithoutPred(t *testing.T) {
	nodes, _, _ := countedRing(t, 8, Config{}, true, true, nil)
	entry, owner := nodes[0], nodes[4]
	k, other := keyspace.FromFloat(3.5/8), keyspace.FromFloat(3.75/8)
	owner.mu.Lock()
	owner.pred = owner.self
	owner.mu.Unlock()

	resp, err := entry.tr.CallCtx(bg, owner.Self().Addr, &transport.Request{Op: transport.OpFindOwner, Key: k})
	if err != nil || !resp.Found || resp.Arc != (keyspace.Range{}) {
		t.Fatalf("find_owner at a predecessor-less owner = %+v, %v; want Found with no arc", resp, err)
	}
	if _, err := entry.Put(bg, k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := entry.Get(bg, k); err != nil || !got.Found || string(got.Value) != "v" {
		t.Fatalf("get = %+v, %v", got, err)
	}
	ent, ok := entry.routes.Get(k)
	if !ok || ent.owner.Addr != owner.Self().Addr || ent.arc != (keyspace.Range{Start: k, End: k + 1}) {
		t.Errorf("cache for %v holds %+v, %v; want %s under the one key", k, ent, ok, owner.Self().Addr)
	}
	if ent, ok := entry.routes.Get(other); ok {
		t.Errorf("another key of the owner's arc is cached: %+v", ent)
	}
}

// TestRouteCacheStaleAfterJoin is the arc-moving stale-safety contract: a
// node joins exactly at a cached key, taking over its arc, and the next
// write through the stale cache must land on the new owner — the old
// owner's ownership gate rejects it and the route is re-resolved.
func TestRouteCacheStaleAfterJoin(t *testing.T) {
	c := newTestCluster(t, 8)
	n := c.Nodes[0]
	k := keyspace.FromFloat(0.5)
	if expectedOwner(c.Nodes, k).Addr == n.Self().Addr {
		n = c.Nodes[1] // requester must observe the arc move remotely
	}
	if _, err := n.Put(bg, k, []byte("before")); err != nil {
		t.Fatal(err)
	}

	// The newbie's key equals k, so it owns k the moment it splices in.
	newbie := mustNode(t, c.Fabric.Endpoint(), Config{Key: k, MaxIn: 16, MaxOut: 16, Seed: 99})
	defer newbie.Close()
	if err := newbie.Join(bg, c.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		c.StabilizeAll(bg)
		newbie.Stabilize(bg)
	}

	res, err := n.Put(bg, k, []byte("after"))
	if err != nil {
		t.Fatalf("put through stale route: %v", err)
	}
	if res.Owner.Addr != newbie.Self().Addr {
		t.Errorf("write landed on %s, want the joined owner %s", res.Owner.Addr, newbie.Self().Addr)
	}
	got, err := newbie.Get(bg, k)
	if err != nil || !got.Found || !bytes.Equal(got.Value, []byte("after")) {
		t.Fatalf("read after arc move: found=%v value=%q err=%v", got.Found, got.Value, err)
	}
}

// TestRouteCacheStaleAfterOwnerCrash is the crash half of the stale-safety
// contract: the cached owner dies, the ring heals, and the next write
// through the stale cache re-resolves and succeeds with the fresh value
// readable — no wrong answer, no routing dead end.
func TestRouteCacheStaleAfterOwnerCrash(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 12, Seed: 21, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	n := c.Nodes[0]
	k, owner := pickRemoteKey(t, c, n)
	if _, err := n.Put(bg, k, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	for _, m := range c.Nodes {
		if m.Self().Addr == owner.Addr {
			_ = m.Close()
		}
	}
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}

	if _, err := n.Put(bg, k, []byte("v2")); err != nil {
		t.Fatalf("put through dead cached owner: %v", err)
	}
	got, err := n.Get(bg, k)
	if err != nil || !got.Found || !bytes.Equal(got.Value, []byte("v2")) {
		t.Fatalf("read after owner crash: found=%v value=%q err=%v", got.Found, got.Value, err)
	}
}

// TestRouteCacheReadFreshness: a read through a cached arc asks the owner
// every time, so a remote overwrite wins at once and a remote delete is an
// authoritative not-found — never a value the reader saw before.
func TestRouteCacheReadFreshness(t *testing.T) {
	c := newTestCluster(t, 12)
	reader := c.Nodes[0]
	k, owner := pickRemoteKey(t, c, reader)
	writer := c.Nodes[1]
	if writer.Self().Addr == owner.Addr {
		writer = c.Nodes[2]
	}
	steps := []struct {
		write func() (OpResult, error)
		want  string // "" reads as not found
	}{
		{func() (OpResult, error) { return writer.Put(bg, k, []byte("v1")) }, "v1"},
		{func() (OpResult, error) { return writer.Put(bg, k, []byte("v2")) }, "v2"},
		{func() (OpResult, error) { return writer.Delete(bg, k) }, ""},
	}
	var hits uint64
	for i, step := range steps {
		if _, err := step.write(); err != nil {
			t.Fatal(err)
		}
		got, err := reader.Get(bg, k)
		if err != nil || got.Found != (step.want != "") || string(got.Value) != step.want {
			t.Fatalf("read %d = %q (found %v, %v), want %q", i, got.Value, got.Found, err, step.want)
		}
		if i == 0 {
			hits = reader.State().RouteHits // the walk that primed the cache
		}
	}
	if st := reader.State(); st.RouteHits != hits+2 {
		t.Errorf("route hits %d → %d, want both later reads through the cached arc", hits, st.RouteHits)
	}
}

// TestRouteCacheOwnerCrashChainFallback: with the cached owner dead and the
// ring not yet healed, a read through the stale route still returns the
// value, from the owner's replica chain, and its Cost counts every call it
// sent.
func TestRouteCacheOwnerCrashChainFallback(t *testing.T) {
	nodes, trs, _ := countedRing(t, 12, Config{Replicas: 3}, true, true, nil)
	reader, tr, owner := nodes[0], trs[0], nodes[6]
	k := keyspace.FromFloat(5.5 / 12)
	if got := expectedOwner(nodes, k); got.Addr != owner.Self().Addr {
		t.Fatalf("test setup: %v is owned by %s, want %s", k, got.Addr, owner.Self().Addr)
	}
	if _, err := reader.Put(bg, k, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	if got, err := reader.Get(bg, k); err != nil || !got.Found {
		t.Fatalf("prime read: %v", err)
	}

	_ = owner.Close()
	// No stabilisation: the reader's route cache still names the corpse.
	if ent, ok := reader.routes.Get(k); !ok || ent.owner.Addr != owner.Self().Addr {
		t.Fatalf("test setup: cache holds %+v, %v; want the dead owner", ent, ok)
	}
	tr.reset()
	got, err := reader.Get(bg, k)
	if err != nil || !got.Found || string(got.Value) != "survivor" {
		t.Fatalf("read during crash window: found=%v value=%q err=%v", got.Found, got.Value, err)
	}
	if got.Owner.Addr == owner.Self().Addr {
		t.Errorf("read served by the dead owner %s", got.Owner.Addr)
	}
	if got.Cost != tr.calls() {
		t.Errorf("read during crash window cost %d but sent %d calls", got.Cost, tr.calls())
	}
}

// TestCachedGetAllocs pins what a cached remote read allocates on an r = 3
// ring: the get is built once, as the find_owner that carries it, and the
// read visits the owner, then its chain, without building a slice of the
// two per read.
func TestCachedGetAllocs(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 8, Seed: 7, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	n := c.Nodes[0]
	k, _ := pickRemoteKey(t, c, n)
	if _, err := n.Put(bg, k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if res, err := n.Get(bg, k); err != nil || !res.Found || res.Cost != 1 {
			t.Fatalf("cached get: %+v, %v; want found in one message", res, err)
		}
	}
	get()
	hits := n.State().RouteHits
	allocs := testing.AllocsPerRun(200, get)
	if n.State().RouteHits == hits {
		t.Fatal("the reads missed the route cache: the test shows nothing")
	}
	// An owner+chain slice built per read, a carried copy of the get, or
	// a second Response around the owner's get answer would be a fourth.
	if allocs > 3 {
		t.Errorf("a cached get allocates %.1f times, want at most 3", allocs)
	}
}

// TestCachedPutAllocs pins what a cached remote put allocates at r = 1
// and at r = 3, where the owner's answer names the chain the put is then
// pushed to: the carried request is built once and the owner answers with
// the put's own response, chain included, not a second Response around it.
func TestCachedPutAllocs(t *testing.T) {
	for _, tc := range []struct{ replicas, max int }{{1, 5}, {3, 13}} {
		t.Run(fmt.Sprintf("r=%d", tc.replicas), func(t *testing.T) {
			c, err := NewCluster(bg, ClusterConfig{Size: 8, Seed: 7, Replicas: tc.replicas})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			n := c.Nodes[0]
			k, _ := pickRemoteKey(t, c, n)
			put := func() {
				if res, err := n.Put(bg, k, []byte("v")); err != nil || res.Acks != tc.replicas {
					t.Fatalf("cached put: %+v, %v; want %d acks", res, err, tc.replicas)
				}
			}
			put()
			hits := n.State().RouteHits
			allocs := testing.AllocsPerRun(200, put)
			if n.State().RouteHits == hits {
				t.Fatal("the puts missed the route cache: the test shows nothing")
			}
			t.Logf("allocs %.1f", allocs)
			if allocs > float64(tc.max) {
				t.Errorf("a cached put allocates %.1f times, want at most %d", allocs, tc.max)
			}
		})
	}
}
