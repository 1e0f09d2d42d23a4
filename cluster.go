package oscar

import (
	"context"
	"fmt"
	"path/filepath"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// Cluster is an in-process overlay of live message-passing nodes on the
// in-memory fabric: every node runs the real protocol (joins, Chord
// stabilisation, walk-based link acquisition, iterative routing) without
// sockets. It is the in-process Client: integration tests and examples run
// the deployment code path at in-memory speed, and Node(i) is a Client.
type Cluster struct {
	fabric *transport.Fabric
	nodes  []*Node
	// wrap is the WithTransportWrapper hook the cluster booted with;
	// AddNode applies it to joiners that don't bring their own, so churn
	// under a fault harness stays inside the harness.
	wrap func(transport.Transport) transport.Transport
}

// StartCluster boots size live nodes on a shared in-memory fabric: the
// first node creates the overlay, the rest join through it, then the
// cluster stabilises. Each joiner wires its long-range links once, at the
// end of its join, over the ring as it stood then; the boot runs no
// second pass. So the first node, which joins nobody, starts with no long
// links, and early joiners with few, until a rewire (RewireAll, or
// WithAutoMaintenance's periodic one) rebuilds them. Options (WithSeed,
// WithKeys, WithDegrees, WithStabilizeRounds, WithReplicas,
// WithAutoMaintenance, WithAntiEntropy, ...) configure every node; the
// context bounds the whole boot sequence.
func StartCluster(ctx context.Context, size int, opts ...Option) (*Cluster, error) {
	if size < 1 {
		return nil, fmt.Errorf("oscar: cluster size %d", size)
	}
	o := buildOptions(opts)
	keys := o.keys
	if keys == nil {
		keys = keydist.GnutellaLike()
	}
	degrees := o.degrees
	if degrees == nil {
		degrees = degreedist.Constant(16)
	}
	stabilizeRounds := o.stabilizeRounds
	if stabilizeRounds == 0 {
		stabilizeRounds = 2
	}
	keyRand := rng.Derive(o.seed, "cluster-keys")
	capRand := rng.Derive(o.seed, "cluster-caps")

	c := &Cluster{fabric: transport.NewFabric(), wrap: o.transportWrapper}
	for i := 0; i < size; i++ {
		caps := degrees.Sample(capRand)
		cfg := NodeConfig{
			Key:             keys.Sample(keyRand),
			MaxIn:           caps,
			MaxOut:          caps,
			Replicas:        o.replicas,
			WriteConcern:    o.writeConcern,
			AutoMaintenance: o.autoMaintenance,
			AntiEntropy:     o.antiEntropy,
			Seed:            o.seed + int64(i),
			WrapTransport:   o.transportWrapper,
		}
		if o.dataDir != "" {
			cfg.DataDir = filepath.Join(o.dataDir, fmt.Sprintf("node-%d", i))
		}
		node, err := startNodeOn(c.fabric.Endpoint(), cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("oscar: cluster node %d: %w", i, err)
		}
		if i > 0 {
			if err := node.Join(ctx, c.nodes[0].Addr()); err != nil {
				_ = node.Close()
				c.Close()
				return nil, fmt.Errorf("oscar: cluster node %d join: %w", i, err)
			}
		}
		c.nodes = append(c.nodes, node)
	}
	for round := 0; round < stabilizeRounds; round++ {
		c.StabilizeAll(ctx)
	}
	if err := ctx.Err(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Len returns the number of nodes (alive or closed).
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns the i-th node. Use any node as the Client entry point —
// operations route to the right owner regardless of which peer serves
// them.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// AddNode boots one more node on the cluster's fabric and joins it through
// the cluster's first open node.
func (c *Cluster) AddNode(ctx context.Context, cfg NodeConfig) (*Node, error) {
	if cfg.WrapTransport == nil {
		cfg.WrapTransport = c.wrap
	}
	node, err := startNodeOn(c.fabric.Endpoint(), cfg)
	if err != nil {
		return nil, err
	}
	for _, peer := range c.nodes {
		if !peer.isClosed() {
			if err := node.Join(ctx, peer.Addr()); err != nil {
				_ = node.Close()
				return nil, err
			}
			c.nodes = append(c.nodes, node)
			return node, nil
		}
	}
	_ = node.Close()
	return nil, fmt.Errorf("oscar: add node: no open peer to join through")
}

// StabilizeAll runs one stabilisation round on every open node, in
// parallel — the live topology has no global scheduler, and Chord
// stabilisation is designed for concurrent rounds.
func (c *Cluster) StabilizeAll(ctx context.Context) {
	c.forAllOpen(func(n *Node) { n.Stabilize(ctx) })
}

// RewireAll rebuilds every open node's long-range links, in parallel.
// StartCluster does not call it: on a 64-node boot a second pass after the
// joins' own took more than half the boot's time and saved about 0.1 hop
// of mean lookup cost.
func (c *Cluster) RewireAll(ctx context.Context) {
	c.forAllOpen(func(n *Node) { _ = n.Rewire(ctx) })
}

func (c *Cluster) forAllOpen(fn func(*Node)) {
	done := make(chan struct{})
	open := 0
	for _, n := range c.nodes {
		if n.isClosed() {
			continue
		}
		open++
		go func(n *Node) {
			fn(n)
			done <- struct{}{}
		}(n)
	}
	for i := 0; i < open; i++ {
		<-done
	}
}

// Close shuts every node down.
func (c *Cluster) Close() error {
	for _, n := range c.nodes {
		_ = n.Close()
	}
	return nil
}
