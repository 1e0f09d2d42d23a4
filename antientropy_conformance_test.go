package oscar

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/oscar-overlay/oscar/internal/transport"
)

// The divergence-heal contract, asserted on both fabrics: a replica
// that diverged from its arc's owner (missed writes, a stale value, a
// resurrected delete, stray keys) is repaired by one anti-entropy pass, the
// pass transfers only the diverged keys — counted via sync stats, never the
// arc size — and after the owner crashes the repaired chain serves every
// live key while deleted keys stay deleted.

// divergenceHarness is one backend under the divergence-heal contract.
type divergenceHarness struct {
	name   string
	client Client
	// keys are writeable keys sharing one owner (the divergence victim's
	// chain); stray is a key in the same arc never written anywhere.
	keys  []Key
	stray Key
	// divergeReplica corrupts the owner's first replica behind its back:
	// missing copies, a stale value, a resurrected delete, a stray key.
	divergeReplica func(missing []Key, stale Key, staleVal []byte, zombie Key, zombieVal []byte, stray Key, strayVal []byte)
	// sync runs one anti-entropy pass and returns its stats.
	sync func() SyncStats
	// ownerInfo is the keys' owner's own Info: it reports the repair work
	// the owner's syncs did.
	ownerInfo func() InfoResponse
	// killOwner crashes the keys' owner and heals the overlay enough for
	// routing to succeed.
	killOwner func()
	close     func()
}

const divergenceReplicas = 3

// liveDivergenceHarness is the shared live-backend setup: both fabrics boot
// a ring of *Node, pick an owner other than the client's node, and reach
// into the p2p internals only for fault injection.
func liveDivergenceHarness(t *testing.T, name string, nodes []*Node, closeAll func()) *divergenceHarness {
	t.Helper()
	ctx := context.Background()
	stabilize := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, n := range nodes {
				if !n.isClosed() {
					n.Stabilize(ctx)
				}
			}
		}
	}
	stabilize(6)

	owner := nodes[2]
	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = owner.Key() - Key(i)
	}
	chain := owner.inner.SuccList()
	if len(chain) < divergenceReplicas-1 {
		t.Fatalf("owner chain too short: %d", len(chain))
	}
	var replica *Node
	for _, n := range nodes {
		if n.Addr() == string(chain[0].Addr) {
			replica = n
		}
	}
	if replica == nil {
		t.Fatal("first replica not found")
	}
	return &divergenceHarness{
		name:   name,
		client: nodes[0],
		keys:   keys[:7],
		stray:  owner.Key() - 1000,
		divergeReplica: func(missing []Key, stale Key, staleVal []byte, zombie Key, zombieVal []byte, stray Key, strayVal []byte) {
			for _, k := range missing {
				replica.inner.DropReplica(k)
			}
			replica.inner.InjectReplica(stale, staleVal)
			replica.inner.InjectReplica(zombie, zombieVal)
			replica.inner.InjectReplica(stray, strayVal)
		},
		sync: func() SyncStats {
			st, err := owner.AntiEntropy(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		ownerInfo: func() InfoResponse {
			info, err := owner.Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return info
		},
		killOwner: func() {
			_ = owner.Close()
			stabilize(6)
		},
		close: closeAll,
	}
}

func divergenceMemHarness(t *testing.T) *divergenceHarness {
	t.Helper()
	c, err := StartCluster(context.Background(), 10, WithSeed(8), WithReplicas(divergenceReplicas))
	if err != nil {
		t.Fatal(err)
	}
	return liveDivergenceHarness(t, "p2p/mem", c.Nodes(), func() { _ = c.Close() })
}

func divergenceTCPHarness(t *testing.T) *divergenceHarness {
	t.Helper()
	ctx := context.Background()
	const size = 7
	var nodes []*Node
	for i := 0; i < size; i++ {
		n, err := StartNode(NodeConfig{
			Listen: "127.0.0.1:0",
			Key:    KeyFromFloat(float64(i)/size + 0.031),
			MaxIn:  8, MaxOut: 8,
			Replicas: divergenceReplicas,
			Seed:     int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := n.Join(ctx, nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	return liveDivergenceHarness(t, "p2p/tcp", nodes, func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
}

// TestDivergenceHeal is the anti-entropy contract on both fabrics.
func TestDivergenceHeal(t *testing.T) {
	harnesses := []func(*testing.T) *divergenceHarness{
		divergenceMemHarness,
		divergenceTCPHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runDivergenceHeal(t, h)
		})
	}
}

func runDivergenceHeal(t *testing.T, h *divergenceHarness) {
	ctx := context.Background()
	cl := h.client

	// Verify the key set shares one owner — the harness promised it.
	first, err := cl.Lookup(ctx, h.keys[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range append(h.keys[1:], h.stray) {
		got, err := cl.Lookup(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Owner.Key != first.Owner.Key {
			t.Fatalf("harness keys span owners (%v vs %v)", got.Owner, first.Owner)
		}
	}

	// Background load across the ring: "only the divergence moves" must
	// hold against a populated overlay, not an empty one.
	for i := 0; i < 30; i++ {
		if _, err := cl.Put(ctx, KeyFromFloat(float64(i)/30+0.009), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([][]byte, 6)
	for i := 0; i < 6; i++ {
		vals[i] = []byte(fmt.Sprintf("val-%d", i))
		if _, err := cl.Put(ctx, h.keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	// keys[5] is deleted through the client: the owner keeps the tombstone
	// and the chain applies the delete.
	if _, err := cl.Delete(ctx, h.keys[5]); err != nil {
		t.Fatal(err)
	}

	// Diverge the first replica: two missing copies, one stale value, the
	// deleted key resurrected, and a stray key the owner never had.
	h.divergeReplica(
		[]Key{h.keys[0], h.keys[1]},
		h.keys[2], []byte("stale"),
		h.keys[5], []byte("zombie"),
		h.stray, []byte("stray"),
	)

	// One pass repairs it, and the stats count exactly the divergence:
	// 3 pushed keys (2 missing + 1 stale), 1 tombstone, 1 drop — out of a
	// store dozens of keys big.
	stats := h.sync()
	if stats.KeysPushed != 3 || stats.TombstonesPushed != 1 || stats.Dropped != 1 {
		t.Fatalf("sync stats = %+v, want exactly the divergence (3 pushed / 1 tombstone / 1 dropped)", stats)
	}

	// Convergence: a second pass moves nothing.
	if again := h.sync(); again.KeysPushed != 0 || again.TombstonesPushed != 0 || again.Dropped != 0 {
		t.Fatalf("second pass still moved data: %+v", again)
	}

	// The owner's Info surfaces the accumulated repair work: both passes
	// (at least one round each) and the divergence the first one moved.
	if ae := h.ownerInfo().AntiEntropy; ae.Rounds < 2 || ae.KeysPushed < 3 || ae.TombstonesPushed < 1 || ae.Dropped < 1 {
		t.Errorf("owner info anti-entropy stats = %+v, want >= 2 rounds / 3 pushed / 1 tombstone / 1 dropped", ae)
	}

	// Kill the owner: the repaired chain must serve every live key with
	// its exact value, and the deleted key must stay deleted — no
	// resurrection from the replica that once held a zombie copy.
	h.killOwner()
	for i := 0; i < 5; i++ {
		got, err := cl.Get(ctx, h.keys[i])
		if err != nil {
			t.Fatalf("key %d after owner crash: %v", i, err)
		}
		if !bytes.Equal(got.Value, vals[i]) {
			t.Fatalf("key %d = %q after owner crash, want %q", i, got.Value, vals[i])
		}
	}
	if _, err := cl.Get(ctx, h.keys[5]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key after owner crash = %v, want ErrNotFound", err)
	}
	if _, err := cl.Get(ctx, h.stray); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stray key after owner crash = %v, want ErrNotFound", err)
	}
}

// TestRingSizeEstimate builds a ring well past the old 128-peer walk cap
// and checks the public Info reports a gossip-derived peer count within
// 20% of the truth — where the previous implementation reported -1.
func TestRingSizeEstimate(t *testing.T) {
	ctx := context.Background()
	const size = 150
	fabric := transport.NewFabric()
	nodes := make([]*Node, size)
	for i := 0; i < size; i++ {
		f := (float64(i) + 0.25*math.Sin(float64(i)*1.7)) / size
		var err error
		nodes[i], err = startNodeOn(fabric.Endpoint(), NodeConfig{
			Key:  KeyFromFloat(f),
			Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := nodes[i].Join(ctx, nodes[i-1].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for round := 0; round < 8; round++ {
		for _, n := range nodes {
			n.Stabilize(ctx)
		}
	}
	info, err := nodes[0].Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(info.Peers)-size)/size > 0.20 {
		t.Errorf("info reports %d peers on a %d-peer ring, want within 20%%", info.Peers, size)
	}
	if info.Peers < 0 {
		t.Error("large ring reported -1: the walk cap is back")
	}
	if math.Abs(info.SizeEstimate-size)/size > 0.20 {
		t.Errorf("size estimate %.1f, want within 20%% of %d", info.SizeEstimate, size)
	}
}
