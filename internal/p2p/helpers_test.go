package p2p

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// mustNode is the test-side NewNode: without a DataDir it cannot fail,
// so tests fatal instead of threading the error.
func mustNode(tb testing.TB, tr transport.Transport, cfg Config) *Node {
	tb.Helper()
	n, err := NewNode(tr, cfg)
	if err != nil {
		tb.Fatalf("NewNode: %v", err)
	}
	return n
}

// uncached switches n's route cache off before n sends anything: a nil
// cache never hits, so every op pays its walk.
func uncached(n *Node) *Node {
	n.routes = nil
	return n
}

// scanned is what scanAll collected: the items in clockwise key order, the
// total message cost and how many peers' shards were visited.
type scanned struct {
	Items        []storage.Item
	Cost         int
	PeersScanned int
}

// scanAll drains a ScanSession from n over [start, end) the way the public
// Scan does: page by page, resuming one past the last item, until the
// session is done or limit items are in hand (limit <= 0 is unlimited).
func scanAll(ctx context.Context, n *Node, start, end keyspace.Key, limit int) (scanned, error) {
	var res scanned
	rg := keyspace.Range{Start: start, End: end}
	s := n.NewScanSession(start, end)
	cursor := start
	for {
		want := 0
		if limit > 0 {
			want = limit - len(res.Items)
		}
		chunk, err := s.NextPage(ctx, cursor, want)
		res.Cost += chunk.Cost
		res.PeersScanned += chunk.Peers
		if err != nil {
			return res, err
		}
		res.Items = append(res.Items, chunk.Items...)
		if limit > 0 && len(res.Items) >= limit {
			res.Items = res.Items[:limit]
			return res, nil
		}
		if chunk.Done {
			return res, nil
		}
		if len(chunk.Items) == 0 {
			continue // NextPage advanced shards; the cursor stands
		}
		cursor = chunk.Items[len(chunk.Items)-1].Key + 1
		if !rg.Contains(cursor) {
			return res, nil
		}
	}
}

// ClusterConfig parameterises NewCluster.
type ClusterConfig struct {
	// Size is the number of nodes (>= 1).
	Size int
	// Keys is the identifier distribution (default GnutellaLike).
	Keys keydist.Distribution
	// Degrees is the cap distribution (default Constant(16)).
	Degrees degreedist.Distribution
	// Seed drives key/cap draws and node randomness.
	Seed int64
	// StabilizeRounds after all joins (default 2).
	StabilizeRounds int
	// Replicas is the per-node replication factor r (default 1).
	Replicas int
}

// Cluster is an in-process overlay running on the in-memory fabric — the
// package tests' ring (the public one is the root package's StartCluster).
type Cluster struct {
	Fabric *transport.Fabric
	Nodes  []*Node
}

// NewCluster boots a cluster: the first node creates the overlay, the rest
// join through it, then everybody stabilises and rewires. The context bounds
// the whole boot sequence.
func NewCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("p2p: cluster size %d", cfg.Size)
	}
	if cfg.Keys == nil {
		cfg.Keys = keydist.GnutellaLike()
	}
	if cfg.Degrees == nil {
		cfg.Degrees = degreedist.Constant(16)
	}
	if cfg.StabilizeRounds == 0 {
		cfg.StabilizeRounds = 2
	}
	keyRand := rng.Derive(cfg.Seed, "cluster-keys")
	capRand := rng.Derive(cfg.Seed, "cluster-caps")

	c := &Cluster{Fabric: transport.NewFabric()}
	for i := 0; i < cfg.Size; i++ {
		caps := cfg.Degrees.Sample(capRand)
		node, err := NewNode(c.Fabric.Endpoint(), Config{
			Key:      cfg.Keys.Sample(keyRand),
			MaxIn:    caps,
			MaxOut:   caps,
			Replicas: cfg.Replicas,
			Seed:     cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("p2p: node %d: %w", i, err)
		}
		if i > 0 {
			if err := node.Join(ctx, c.Nodes[0].Self().Addr); err != nil {
				return nil, fmt.Errorf("p2p: node %d join: %w", i, err)
			}
		}
		c.Nodes = append(c.Nodes, node)
	}
	for round := 0; round < cfg.StabilizeRounds; round++ {
		c.StabilizeAll(ctx)
	}
	c.RewireAll(ctx)
	if err := ctx.Err(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// StabilizeAll runs one stabilisation round across the cluster, all nodes
// in parallel — the live topology has no global scheduler, and Chord
// stabilisation tolerates (is designed for) concurrent rounds.
func (c *Cluster) StabilizeAll(ctx context.Context) {
	c.forAllAlive(func(n *Node) { n.Stabilize(ctx) })
}

// RewireAll rebuilds every node's long-range links, all nodes in parallel.
func (c *Cluster) RewireAll(ctx context.Context) {
	c.forAllAlive(func(n *Node) { _ = n.Rewire(ctx) })
}

// forAllAlive applies fn to every alive node concurrently and waits.
func (c *Cluster) forAllAlive(fn func(*Node)) {
	var wg sync.WaitGroup
	for _, n := range c.Nodes {
		if n.isDown() {
			continue
		}
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			fn(n)
		}(n)
	}
	wg.Wait()
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		_ = n.Close()
	}
}
