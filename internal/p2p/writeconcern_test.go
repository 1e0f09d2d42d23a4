package p2p

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// TestWriteConcernAcks is the p2p-level ack contract: with r=3 and one
// chain member dead (and the chain not yet repaired), a write collects
// exactly two acks — so w=2 succeeds, w=3 fails with the honest counts,
// and the failed-concern write still lands everywhere that acked.
func TestWriteConcernAcks(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 8, Seed: 7, Replicas: 3, StabilizeRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Find a key whose owner and first replica are both distinct from the
	// client node, so killing the replica leaves client and owner alive.
	client := c.Nodes[0]
	var key keyspace.Key
	var victim *Node
	for f := 0.05; f < 1 && victim == nil; f += 0.09 {
		k := keyspace.FromFloat(f)
		owner, _, err := client.Lookup(bg, k)
		if err != nil {
			t.Fatal(err)
		}
		var ownerNode *Node
		for _, n := range c.Nodes {
			if n.Self().Addr == owner.Addr {
				ownerNode = n
			}
		}
		if ownerNode == nil {
			continue
		}
		chain := ownerNode.SuccList()
		if len(chain) < 2 || chain[0].Addr == client.Self().Addr {
			continue
		}
		for _, n := range c.Nodes {
			if n.Self().Addr == chain[0].Addr {
				key, victim = k, n
			}
		}
	}
	if victim == nil {
		t.Fatal("no suitable key/victim pair found")
	}
	_ = victim.Close() // the owner's chain still lists it: one push must fail

	res, err := client.PutW(bg, key, []byte("wc-2"), 2)
	if err != nil {
		t.Fatalf("w=2 with one dead replica: %v", err)
	}
	if res.Acks != 2 {
		t.Fatalf("w=2 collected %d acks, want 2 (owner + surviving replica)", res.Acks)
	}

	res, err = client.PutW(bg, key, []byte("wc-3"), 3)
	if !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("w=3 with one dead replica = %v, want ErrWriteConcern", err)
	}
	var wce *WriteConcernError
	if !errors.As(err, &wce) || wce.Acks != 2 || wce.Want != 3 {
		t.Fatalf("write-concern error = %v, want 2/3 acks", err)
	}
	if res.Acks != 2 {
		t.Fatalf("failed write reports %d acks, want 2", res.Acks)
	}

	// The unsatisfied write is not rolled back: it reads back.
	got, err := client.Get(bg, key)
	if err != nil || !got.Found || !bytes.Equal(got.Value, []byte("wc-3")) {
		t.Fatalf("read after failed concern = %q/%v/%v, want the written value", got.Value, got.Found, err)
	}

	// Deletes enforce the same contract.
	if _, err := client.DeleteW(bg, key, 3); !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("delete w=3 = %v, want ErrWriteConcern", err)
	}
	if got, err := client.Get(bg, key); err != nil || got.Found {
		t.Fatalf("failed-concern delete must still hold where acked: found=%v err=%v", got.Found, err)
	}
}

// TestMigrateChunked: an arc holding far more items than one replicate
// frame carries must migrate completely on join — the joiner loops on the
// More flag, pulling bounded chunks, instead of receiving (or losing) one
// giant frame.
func TestMigrateChunked(t *testing.T) {
	const items = maxReplicateItems*2 + 57 // forces at least 3 chunks
	fabric := transport.NewFabric()
	n1 := mustNode(t, fabric.Endpoint(), Config{Key: keyspace.FromFloat(0.9), Seed: 1})
	t.Cleanup(func() { _ = n1.Close() })
	for i := 0; i < items; i++ {
		k := keyspace.FromFloat(0.1 + 0.5*float64(i)/items)
		if _, err := n1.Put(bg, k, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// One delete leaves a tombstone in the arc: delete knowledge must
	// travel with the chunked migration too.
	delKey := keyspace.FromFloat(0.1)
	if _, err := n1.Delete(bg, delKey); err != nil {
		t.Fatal(err)
	}

	tr := newCountingTransport(fabric.Endpoint())
	n2 := mustNode(t, tr, Config{Key: keyspace.FromFloat(0.6), Seed: 2})
	t.Cleanup(func() { _ = n2.Close() })
	if err := n2.Join(bg, n1.Self().Addr); err != nil {
		t.Fatal(err)
	}
	if n := tr.get(tr.sent, transport.OpMigrate); n < 3 {
		t.Errorf("the arc migrated in %d chunks, want at least 3 of at most %d items", n, maxReplicateItems)
	}

	if got := n2.StoredItems(); got != items-1 {
		t.Fatalf("joiner holds %d items, want %d (the whole arc, beyond one frame)", got, items-1)
	}
	if got := n1.StoredItems(); got != 0 {
		t.Fatalf("previous owner still holds %d arc items", got)
	}
	if _, found := n2.PrimaryValue(delKey); found {
		t.Fatal("deleted key resurfaced on the joiner")
	}
	if n2.Tombstones() == 0 {
		t.Error("arc tombstone did not travel with the chunked migration")
	}
}

// TestReadFallbackRespectsTombstone: the chain fallback added for
// read-repair must not turn a replica's zombie copy into a resurrected
// read — a tombstone at the owner is an authoritative miss.
func TestReadFallbackRespectsTombstone(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 6, Seed: 5, Replicas: 3, StabilizeRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client := c.Nodes[0]

	key := keyspace.FromFloat(0.42)
	if _, err := client.Put(bg, key, []byte("soon-dead")); err != nil {
		t.Fatal(err)
	}
	owner, _, err := client.Lookup(bg, key)
	if err != nil {
		t.Fatal(err)
	}
	var ownerNode *Node
	for _, n := range c.Nodes {
		if n.Self().Addr == owner.Addr {
			ownerNode = n
		}
	}
	if ownerNode == nil {
		t.Fatal("owner not in cluster")
	}
	if _, err := client.Delete(bg, key); err != nil {
		t.Fatal(err)
	}

	// The second replica resurrects the copy behind the protocol's back
	// (a stale push arriving out of order would look the same); the first
	// replica keeps the propagated tombstone.
	chain := ownerNode.SuccList()
	if len(chain) < 2 {
		t.Fatalf("owner chain too short: %d", len(chain))
	}
	for _, n := range c.Nodes {
		if n.Self().Addr == chain[1].Addr {
			n.InjectReplica(key, []byte("zombie"))
		}
	}

	res, err := client.Get(bg, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("deleted key served %q via chain fallback; the owner's tombstone must be authoritative", res.Value)
	}

	// Harder case: the owner loses every record of the key (item and
	// tombstone), the first replica still holds the tombstone, and the
	// second replica holds the zombie copy. The chain walk must stop at
	// the first tombstone — delete knowledge anywhere on the chain beats
	// a staler copy behind it.
	ownerNode.DropPrimary(key)
	res, err = client.Get(bg, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("recordless owner + chain tombstone still served %q; the first chain tombstone must end the read", res.Value)
	}
}

// TestSizeEstimateSkewedKeys: the harmonic (inverse-averaged) gossip
// bounds the ring-size error to a small factor under heavily skewed key
// spacing. Cubic spacing makes arc sizes span ~3 orders of magnitude and
// single-node density estimates range from ~0.5N to ~250N; the former
// arithmetic blend inherited the right skew of 1/f and parked sparse-arc
// neighbourhoods at hundreds of times the truth, while the harmonic mean
// (mixed over the successor ring plus one long-range link per round) must
// keep every node within a factor of two.
func TestSizeEstimateSkewedKeys(t *testing.T) {
	const size = 64
	fabric := transport.NewFabric()
	nodes := make([]*Node, size)
	for i := 0; i < size; i++ {
		f := 0.001 + 0.998*math.Pow(float64(i)/size, 3)
		nodes[i] = mustNode(t, fabric.Endpoint(), Config{Key: keyspace.FromFloat(f), Seed: int64(i)})
		if i > 0 {
			if err := nodes[i].Join(bg, nodes[i-1].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
	for round := 0; round < 16; round++ {
		for _, n := range nodes {
			n.Stabilize(bg)
		}
	}
	for i, n := range nodes {
		est := n.SizeEstimate()
		if est < size/2 || est > size*2 {
			t.Errorf("node %d estimates %.1f peers on skewed keys, want within 2x of %d", i, est, size)
		}
	}
}

// TestReadRepairHealsOwner is the p2p-level read-repair loop: an owner
// that silently lost part of its arc is healed by the first fallback read
// that finds the state on a replica, and the repair moves exactly the
// divergence.
func TestReadRepairHealsOwner(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 6, Seed: 3, Replicas: 3, StabilizeRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client := c.Nodes[0]
	// Pick an owner whose arc is wide enough to hold the whole key run.
	var owner *Node
	for _, n := range c.Nodes[1:] {
		ref, _, err := client.Lookup(bg, n.Self().Key-4)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Addr == n.Self().Addr {
			owner = n
			break
		}
	}
	if owner == nil {
		t.Fatal("no node owns a wide enough arc")
	}

	keys := make([]keyspace.Key, 5)
	vals := make([][]byte, 5)
	for i := range keys {
		keys[i] = owner.Self().Key - keyspace.Key(i)
		vals[i] = []byte(fmt.Sprintf("rr-%d", i))
		if _, err := client.Put(bg, keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	base := owner.SyncTotals()

	owner.DropPrimary(keys[0])
	owner.DropPrimary(keys[1])

	res, err := client.Get(bg, keys[0])
	if err != nil || !res.Found || !bytes.Equal(res.Value, vals[0]) {
		t.Fatalf("fallback read = %q/%v/%v, want the replica's copy", res.Value, res.Found, err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := owner.SyncTotals()
		_, has0 := owner.PrimaryValue(keys[0])
		_, has1 := owner.PrimaryValue(keys[1])
		if has0 && has1 && st.KeysPushed-base.KeysPushed >= 2 {
			if pushed := st.KeysPushed - base.KeysPushed; pushed != 2 {
				t.Fatalf("read-repair pushed %d keys, want exactly the divergence (2)", pushed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never healed: has0=%v has1=%v stats=%+v", has0, has1, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
