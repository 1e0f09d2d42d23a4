package p2p

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

func nodeByAddr(t testing.TB, nodes []*Node, addr transport.Addr) *Node {
	t.Helper()
	for _, n := range nodes {
		if n.Self().Addr == addr {
			return n
		}
	}
	t.Fatalf("no node at %s", addr)
	return nil
}

// arcKeys returns count keys walking counter-clockwise from owner's own key
// — the keys most certainly inside the owner's arc.
func arcKeys(owner *Node, count int) []keyspace.Key {
	keys := make([]keyspace.Key, count)
	for i := range keys {
		keys[i] = owner.Self().Key - keyspace.Key(i)
	}
	return keys
}

// TestDigestSyncRepairsDivergence is the tentpole's core proof: every way a
// replica can diverge — missing copies, stale values, a resurrected delete,
// stray keys the owner never had — is repaired by one AntiEntropy pass, and
// the sync stats count exactly the divergence, not the arc.
func TestDigestSyncRepairsDivergence(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 10, Seed: 17, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}

	owner := c.Nodes[4]
	keys := arcKeys(owner, 7)
	for i, k := range keys {
		if got := expectedOwner(c.Nodes, k); got.Addr != owner.Self().Addr {
			t.Fatalf("test setup: key %d owned by %s, not the chosen owner", i, got.Addr)
		}
	}
	// Background load elsewhere on the ring, so "only the divergence moves"
	// is a real claim, not an artefact of an otherwise-empty store.
	for i := 0; i < 24; i++ {
		if _, err := c.Nodes[i%3].Put(bg, keyspace.FromFloat(float64(i)/24+0.017), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys[:6] {
		if _, err := c.Nodes[i%len(c.Nodes)].Put(bg, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// keys[5] is deleted: the owner keeps it as a tombstone.
	if res, err := c.Nodes[2].Delete(bg, keys[5]); err != nil || !res.Found {
		t.Fatalf("delete: %+v %v", res, err)
	}

	chain := owner.State().Succs
	if len(chain) < 2 {
		t.Fatalf("owner chain too short: %d", len(chain))
	}
	replica := nodeByAddr(t, c.Nodes, chain[0].Addr)

	// Diverge the first replica behind the owner's back.
	replica.DropReplica(keys[0])                     // missing copy
	replica.DropReplica(keys[1])                     // missing copy
	replica.InjectReplica(keys[2], []byte("stale"))  // stale value
	replica.InjectReplica(keys[5], []byte("zombie")) // resurrected delete
	stray := owner.Self().Key - 1000                 // never written anywhere
	replica.InjectReplica(stray, []byte("stray"))    // no owner record
	if got := expectedOwner(c.Nodes, stray); got.Addr != owner.Self().Addr {
		t.Fatalf("test setup: stray key not in the owner's arc")
	}

	stats := owner.AntiEntropy(bg)
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (one per chain member)", stats.Rounds)
	}
	if stats.KeysPushed != 3 || stats.TombsPushed != 1 || stats.Dropped != 1 {
		t.Errorf("stats = %+v, want 3 pushed / 1 tombstone / 1 dropped", stats)
	}

	for i, k := range keys[:5] {
		ks := replica.KeyState(k)
		if !ks.HasReplica || !bytes.Equal(ks.Replica, []byte(fmt.Sprintf("v%d", i))) {
			t.Errorf("key %d not repaired: %q, %v", i, ks.Replica, ks.HasReplica)
		}
	}
	if ks := replica.KeyState(keys[5]); ks.HasReplica {
		t.Error("resurrected delete survived the sync")
	} else if !ks.ReplicaTomb {
		t.Error("replica did not learn the missed delete")
	}
	if replica.KeyState(stray).HasReplica {
		t.Error("stray replica key survived the sync")
	}

	// Convergence: a second pass moves nothing.
	stats = owner.AntiEntropy(bg)
	if stats.KeysPushed != 0 || stats.TombsPushed != 0 || stats.Dropped != 0 || stats.LeavesDiffed != 0 {
		t.Errorf("second pass still moved data: %+v", stats)
	}
	if stats.Messages != 2 {
		t.Errorf("in-sync pass cost %d messages, want 2 (one digest per chain member)", stats.Messages)
	}
}

// TestSyncCostProportionalToDivergence pins the headline property with
// numbers: an arc of many items with a handful diverged moves exactly that
// handful, and the in-sync chain member costs one digest RPC.
func TestSyncCostProportionalToDivergence(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 8, Seed: 5, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}

	owner := c.Nodes[2]
	const arcSize, diverged = 120, 4
	keys := arcKeys(owner, arcSize)
	for i, k := range keys {
		if _, err := c.Nodes[i%len(c.Nodes)].Put(bg, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	replica := nodeByAddr(t, c.Nodes, owner.State().Succs[0].Addr)
	for _, k := range keys[:diverged] {
		replica.DropReplica(k)
	}

	stats := owner.AntiEntropy(bg)
	if stats.KeysPushed != diverged {
		t.Errorf("pushed %d keys, want exactly the %d diverged (arc holds %d)",
			stats.KeysPushed, diverged, arcSize)
	}
	for i, k := range keys[:diverged] {
		if ks := replica.KeyState(k); !ks.HasReplica || ks.Replica[0] != byte(i) {
			t.Errorf("diverged key %d not repaired", i)
		}
	}
}

// TestReplicaGC proves memory is reclaimed after a chain membership shift:
// when a new node splices in front of a replica, the copies the replica
// held for its former predecessor's arc fall outside its new chain region
// and stabilisation drops them.
func TestReplicaGC(t *testing.T) {
	fabric := transport.NewFabric()
	mk := func(f float64, seed int64) *Node {
		return mustNode(t, fabric.Endpoint(), Config{Key: keyspace.FromFloat(f), Replicas: 2, Seed: seed})
	}
	a, b, cn := mk(0.1, 1), mk(0.4, 2), mk(0.7, 3)
	nodes := []*Node{a, b, cn}
	for _, n := range nodes[1:] {
		if err := n.Join(bg, a.Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	stabilize := func(list []*Node, rounds int) {
		for i := 0; i < rounds; i++ {
			for _, n := range list {
				if !n.isDown() {
					n.Stabilize(bg)
				}
			}
		}
	}
	stabilize(nodes, 4)

	// Fill B's arc (0.1, 0.4]; with r=2 its successor C replicates it.
	const items = 10
	for i := 0; i < items; i++ {
		if _, err := a.Put(bg, keyspace.FromFloat(0.2+float64(i)/100), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cn.State().ReplicaItems; got != items {
		t.Fatalf("C holds %d replica items, want %d", got, items)
	}

	// D joins between B and C: C's chain region shrinks to (D, C] and the
	// copies of B's arc it still holds are stranded.
	d := mk(0.5, 4)
	if err := d.Join(bg, a.Self().Addr); err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, d)
	stabilize(nodes, 4)

	if got := cn.State().ReplicaItems; got != 0 {
		t.Errorf("C still holds %d stranded replica items after GC", got)
	}
	// The data is not lost — it lives at its owner and its current chain.
	for i := 0; i < items; i++ {
		got, err := d.Get(bg, keyspace.FromFloat(0.2+float64(i)/100))
		if err != nil || !got.Found {
			t.Fatalf("key %d unreadable after GC: %v", i, err)
		}
	}

	// The boundary: GC must keep what C legitimately replicates — its
	// immediate predecessor D's arc — through any number of rounds.
	kd := keyspace.FromFloat(0.45) // owned by D, replicated at C
	if _, err := a.Put(bg, kd, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	stabilize(nodes, 4)
	if ks := cn.KeyState(kd); !ks.HasReplica || string(ks.Replica) != "keep" {
		t.Errorf("GC discarded a live chain copy (got %q, %v)", ks.Replica, ks.HasReplica)
	}
}

// TestTombstoneStopsResurrection closes the missed-delete window end to
// end: a replica that reacquired a deleted key (stale state) is cleansed by
// anti-entropy, so even after the owner crashes, reads keep reporting the
// key deleted instead of serving the zombie copy.
func TestTombstoneStopsResurrection(t *testing.T) {
	fabric := transport.NewFabric()
	mk := func(f float64, seed int64) *Node {
		return mustNode(t, fabric.Endpoint(), Config{Key: keyspace.FromFloat(f), Replicas: 2, Seed: seed})
	}
	a, b, cn := mk(0.1, 1), mk(0.5, 2), mk(0.9, 3)
	nodes := []*Node{a, b, cn}
	for _, n := range nodes[1:] {
		if err := n.Join(bg, a.Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		for _, n := range nodes {
			n.Stabilize(bg)
		}
	}

	k := keyspace.FromFloat(0.45) // owner B, replica C
	if _, err := a.Put(bg, k, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if res, err := a.Delete(bg, k); err != nil || !res.Found {
		t.Fatalf("delete: %+v %v", res, err)
	}
	// C reverts to a stale copy (a missed delete / state restored from
	// before the delete).
	cn.InjectReplica(k, []byte("doomed"))

	if stats := b.AntiEntropy(bg); stats.TombsPushed != 1 {
		t.Fatalf("sync stats = %+v, want the one missed delete propagated", stats)
	}
	if cn.KeyState(k).HasReplica {
		t.Fatal("zombie copy survived anti-entropy")
	}

	_ = b.Close()
	for i := 0; i < 4; i++ {
		for _, n := range nodes {
			if !n.isDown() {
				n.Stabilize(bg)
			}
		}
	}
	got, err := a.Get(bg, k)
	if err != nil {
		t.Fatal(err)
	}
	if got.Found {
		t.Fatalf("deleted key resurrected after owner crash: %q", got.Value)
	}
}

// TestMigrateCarriesTombstones: a node joining into an arc with a fresh
// delete inherits the tombstone with the arc, so the delete keeps holding
// under the new owner.
func TestMigrateCarriesTombstones(t *testing.T) {
	fabric := transport.NewFabric()
	mk := func(f float64, seed int64) *Node {
		return mustNode(t, fabric.Endpoint(), Config{Key: keyspace.FromFloat(f), Seed: seed})
	}
	a, b := mk(0.1, 1), mk(0.6, 2)
	if err := b.Join(bg, a.Self().Addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.Stabilize(bg)
		b.Stabilize(bg)
	}
	k := keyspace.FromFloat(0.4) // owned by B
	if _, err := a.Put(bg, k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Delete(bg, k); err != nil {
		t.Fatal(err)
	}
	// C joins and takes over (0.1, 0.5] — including the deleted key.
	cn := mk(0.5, 3)
	if err := cn.Join(bg, a.Self().Addr); err != nil {
		t.Fatal(err)
	}
	if !cn.KeyState(k).PrimaryTomb {
		t.Error("migrated arc lost its tombstone")
	}
}

func TestChunkReplicate(t *testing.T) {
	mkItems := func(n, valSize int) []storage.Item {
		items := make([]storage.Item, n)
		for i := range items {
			items[i] = storage.Item{Key: keyspace.Key(i), Value: make([]byte, valSize)}
		}
		return items
	}
	tombs := []storage.Tombstone{{Key: 1, At: 9}}
	drop := []keyspace.Key{2}

	// Item-count bound.
	reqs := chunkReplicate(mkItems(maxReplicateItems*2+5, 1), tombs, drop)
	if len(reqs) != 3 {
		t.Fatalf("%d chunks, want 3", len(reqs))
	}
	total := 0
	for i, r := range reqs {
		if len(r.Items) > maxReplicateItems {
			t.Errorf("chunk %d carries %d items", i, len(r.Items))
		}
		total += len(r.Items)
	}
	if total != maxReplicateItems*2+5 {
		t.Errorf("chunks carry %d items in total", total)
	}
	// Tombstones and drops ride once, in the first frame.
	if len(reqs[0].Tombs) != 1 || len(reqs[0].Drop) != 1 {
		t.Error("first chunk lost the tombstones/drops")
	}
	if len(reqs[1].Tombs) != 0 || len(reqs[2].Drop) != 0 {
		t.Error("tombstones/drops duplicated across chunks")
	}

	// Byte bound: 3 MiB values must split well under the 16 MiB frame cap.
	reqs = chunkReplicate(mkItems(4, 3<<20), nil, nil)
	if len(reqs) != 4 {
		t.Fatalf("%d byte-bounded chunks, want 4", len(reqs))
	}

	// A pure tombstone/drop plan still produces one frame.
	reqs = chunkReplicate(nil, tombs, drop)
	if len(reqs) != 1 || len(reqs[0].Tombs) != 1 || len(reqs[0].Drop) != 1 {
		t.Fatalf("empty-items plan = %+v", reqs)
	}
}

// BenchmarkAntiEntropySync measures one repair pass over a 2-node chain
// with a fixed divergence: the digest round plus the targeted pushes.
func BenchmarkAntiEntropySync(b *testing.B) {
	c, err := NewCluster(bg, ClusterConfig{Size: 6, Seed: 9, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 6; round++ {
		c.StabilizeAll(bg)
	}
	owner := c.Nodes[1]
	const arcSize, diverged = 256, 16
	keys := arcKeys(owner, arcSize)
	for i, k := range keys {
		if _, err := c.Nodes[i%len(c.Nodes)].Put(bg, k, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			b.Fatal(err)
		}
	}
	replica := nodeByAddr(b, c.Nodes, owner.State().Succs[0].Addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, k := range keys[:diverged] {
			replica.DropReplica(k)
		}
		b.StartTimer()
		if stats := owner.AntiEntropy(bg); stats.KeysPushed != diverged {
			b.Fatalf("pushed %d, want %d", stats.KeysPushed, diverged)
		}
	}
}

// TestTombstoneGC runs the node's collector over primary and replica
// tombstones stamped in the past: a delete is remembered for ten minutes,
// or for ten anti-entropy intervals when that is longer.
func TestTombstoneGC(t *testing.T) {
	for _, tc := range []struct {
		antiEntropy   time.Duration
		collect, keep time.Duration // tombstone ages
	}{
		{0, 11 * time.Minute, 9 * time.Minute},
		{2 * time.Minute, 21 * time.Minute, 15 * time.Minute},
	} {
		t.Run(fmt.Sprint("anti-entropy=", tc.antiEntropy), func(t *testing.T) {
			n := mustNode(t, transport.NewFabric().Endpoint(), Config{Key: 1, Seed: 1, Replicas: 2, AntiEntropy: tc.antiEntropy})
			t.Cleanup(func() { _ = n.Close() })
			now := time.Now()
			for _, s := range []*storage.Store{&n.store, &n.replStore} {
				s.SetTombstone(10, now.Add(-tc.collect).UnixNano())
				s.SetTombstone(20, now.Add(-tc.keep).UnixNano())
			}
			if got := n.gcTombstones(); got != 2 {
				t.Errorf("collected %d tombstones, want 2", got)
			}
			for name, s := range map[string]*storage.Store{"primary": &n.store, "replica": &n.replStore} {
				if _, ok := s.Tombstone(10); ok {
					t.Errorf("%s: the %s-old tombstone survived", name, tc.collect)
				}
				if _, ok := s.Tombstone(20); !ok {
					t.Errorf("%s: the %s-old tombstone was collected", name, tc.keep)
				}
			}
		})
	}
}
