package p2p

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// abortedJoin boots a 16-node ring with r replicas, puts 600 keys, and
// splits the arc of the node holding the most items with a joiner that is
// closed before it runs a single stabilisation round. It returns the ring
// (joiner included, closed), the keys, the old owner and how many keys the
// joiner took over.
func abortedJoin(t *testing.T, seed int64, replicas int) (*Cluster, []keyspace.Key, *Node, int) {
	t.Helper()
	c, err := NewCluster(bg, ClusterConfig{Size: 16, Seed: seed, Replicas: replicas, Degrees: degreedist.Constant(4)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	r := rng.Derive(seed, "aborted-join-keys")
	keys := make([]keyspace.Key, 600)
	for i := range keys {
		keys[i] = keyspace.Key(r.Uint64())
		if _, err := c.Nodes[i%len(c.Nodes)].Put(bg, keys[i], []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		c.StabilizeAll(bg)
	}
	old, most := c.Nodes[0], -1
	for _, n := range c.Nodes {
		if items := n.State().Items; items > most {
			old, most = n, items
		}
	}
	st := old.State()
	joiner := mustNode(t, c.Fabric.Endpoint(), Config{Key: st.Pred.Key.Midpoint(st.Self.Key), MaxIn: 4, MaxOut: 4, Replicas: replicas, Seed: seed})
	if err := joiner.Join(bg, c.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	took := joiner.State().JoinItems
	if took == 0 {
		t.Fatal("the joiner took no keys: the test shows nothing")
	}
	_ = joiner.Close()
	c.Nodes = append(c.Nodes, joiner)
	return c, keys, old, took
}

// TestAbortedJoinKeepsAckedWrites crashes a joiner before its first
// stabilisation round, so it never pushed the arc it took over to its
// chain. The old owner must still hold copies: after 6 rounds, a second
// joiner just past the old owner (which changes the old owner's chain and
// so starts its digest sync), and 6 more rounds, every acked key reads
// back. Without the copies the old owner took its arc back empty, and its
// sync told the replicas to drop every key of it as a stray.
func TestAbortedJoinKeepsAckedWrites(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, keys, old, took := abortedJoin(t, seed, 3)
			for range 6 {
				c.StabilizeAll(bg)
			}
			second := mustNode(t, c.Fabric.Endpoint(), Config{Key: old.Self().Key + 1, MaxIn: 4, MaxOut: 4, Replicas: 3, Seed: seed + 100})
			if err := second.Join(bg, c.Nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
			c.Nodes = append(c.Nodes, second)
			for range 6 {
				c.StabilizeAll(bg)
			}
			lost := 0
			for i, k := range keys {
				res, err := c.Nodes[0].Get(bg, k)
				if err != nil || !res.Found || string(res.Value) != fmt.Sprint(i) {
					lost++
				}
			}
			if lost > 0 {
				t.Errorf("lost %d of %d acked keys; the aborted joiner took %d", lost, len(keys), took)
			}
		})
	}
	t.Run("copies are the store's own", func(t *testing.T) {
		// The in-memory fabric hands the joiner the response itself, and
		// Join filters its Items in place: that must not reach the copies.
		n := mustNode(t, transport.NewFabric().Endpoint(), Config{Key: keyspace.FromFloat(0.9), Replicas: 2})
		t.Cleanup(func() { _ = n.Close() })
		for i := range 10 {
			if _, err := n.Put(bg, keyspace.FromFloat(float64(i)/10), []byte(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		resp := n.handle(&transport.Request{Op: transport.OpMigrate, Range: keyspace.Range{Start: 0, End: keyspace.FromFloat(0.55)}})
		if len(resp.Items) != 6 {
			t.Fatalf("migrate handed over %d items, want 6", len(resp.Items))
		}
		clear(resp.Items)
		for i := range 6 {
			if ks := n.KeyState(keyspace.FromFloat(float64(i) / 10)); ks.HasPrimary || string(ks.Replica) != fmt.Sprint(i) {
				t.Errorf("key %d after the hand-over: %+v, want only a replica copy %q", i, ks, fmt.Sprint(i))
			}
		}
	})
	t.Run("r=1", func(t *testing.T) {
		// Without replication there is no chain to keep copies for, and
		// gcReplicas never runs: the old owner must keep nothing.
		_, _, old, _ := abortedJoin(t, 1, 1)
		if st := old.State(); st.ReplicaItems != 0 {
			t.Errorf("the old owner kept %d replica copies at r = 1", st.ReplicaItems)
		}
	})
}

// failLaterMigrates passes a node's first migrate through and fails every
// later one with ErrUnreachable: never delivered, or, with run set, run
// at the old owner with the reply lost.
type failLaterMigrates struct {
	transport.Transport
	run bool

	mu       sync.Mutex
	migrates int
}

func (f *failLaterMigrates) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	if req.Op == transport.OpMigrate {
		f.mu.Lock()
		f.migrates++
		later := f.migrates > 1
		f.mu.Unlock()
		if later {
			if f.run {
				_, _ = f.Transport.CallCtx(ctx, addr, req)
			}
			return nil, transport.ErrUnreachable
		}
	}
	return f.Transport.CallCtx(ctx, addr, req)
}

// TestJoinCrashBetweenMigrateChunks fails the later migrates of a joiner
// whose arc spans more than two migrate chunks, right after it pulled the
// first: they are never delivered, or run at the old owner with the reply
// lost, so the join's migration stops after chunk 1. The joiner is closed
// before any round, or, with the replies lost, also left up: it must then
// adopt the extracted chunks from the old owner's replica copies. After 6
// rounds, a second joiner just past the old owner and 6 more rounds, every
// acked key reads back at r = 3.
func TestJoinCrashBetweenMigrateChunks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		run, stay bool
	}{{"undelivered", false, false}, {"reply lost", true, false}, {"reply lost, joiner stays up", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					joinCrashBetweenChunks(t, seed, tc.run, tc.stay)
				})
			}
		})
	}
}

func joinCrashBetweenChunks(t *testing.T, seed int64, run, stay bool) {
	c, err := NewCluster(bg, ClusterConfig{Size: 16, Seed: seed, Replicas: 3, Degrees: degreedist.Constant(4)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	old := c.Nodes[int(seed)%len(c.Nodes)]
	st := old.State()
	joinKey := st.Pred.Key.Midpoint(st.Self.Key)

	// 2 chunks and then some in the joiner's arc (pred, joinKey], 200
	// keys anywhere.
	r := rng.Derive(seed, "migrate-chunk-keys")
	const inArc = 2*maxReplicateItems + 100
	want := make(map[keyspace.Key]string)
	for i := range inArc + 200 {
		k := keyspace.Key(r.Uint64())
		if i < inArc {
			k = st.Pred.Key + 1 + keyspace.Key(uint64(k)%uint64(st.Pred.Key.Distance(joinKey)))
		}
		want[k] = fmt.Sprint(i)
		if _, err := c.Nodes[i%len(c.Nodes)].Put(bg, k, []byte(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		c.StabilizeAll(bg)
	}

	tr := &failLaterMigrates{Transport: c.Fabric.Endpoint(), run: run}
	joiner := mustNode(t, tr, Config{Key: joinKey, MaxIn: 4, MaxOut: 4, Replicas: 3, Seed: seed})
	if err := joiner.Join(bg, c.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	if took := joiner.State().JoinItems; took == 0 || took > maxReplicateItems || tr.migrates < 2 {
		t.Fatalf("the joiner took %d keys in %d migrates, want one chunk and a failed second: the test shows nothing", took, tr.migrates)
	}
	if !stay {
		_ = joiner.Close()
	}
	c.Nodes = append(c.Nodes, joiner)
	for range 6 {
		c.StabilizeAll(bg)
	}
	second := mustNode(t, c.Fabric.Endpoint(), Config{Key: old.Self().Key + 1, MaxIn: 4, MaxOut: 4, Replicas: 3, Seed: seed + 100})
	if err := second.Join(bg, c.Nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	c.Nodes = append(c.Nodes, second)
	for range 6 {
		c.StabilizeAll(bg)
	}
	lost := 0
	for k, v := range want {
		res, err := c.Nodes[0].Get(bg, k)
		if err != nil || !res.Found || string(res.Value) != v {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("lost %d of %d acked keys", lost, len(want))
	}
}
