package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/oscar-overlay/oscar"
	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/faultnet"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// role is what one closed-loop client does. A point client
// draws get/put/delete on its own key stripe by the given shares; a scanner
// runs limit-bounded scans over the preloaded keys; an inserter puts keys
// the ring has never seen.
type role struct {
	get, put, del float64
	scan, insert  bool
}

// spec is one workload: the ring it boots and the traffic it drives. Node
// keys and data keys both follow the skewed Gnutella-like distribution, the
// paper's data-oriented placement.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why   string
	nodes int
	// tcp boots StartNode peers on loopback sockets; otherwise the ring is a
	// StartCluster on the in-memory fabric.
	tcp  bool
	caps degreedist.Distribution
	// replicas and writeConcern are r and w.
	replicas, writeConcern int
	// fsync is the WAL policy; empty runs the nodes memory-only.
	fsync string
	// linkDelay is the fixed delay faultnet adds to every call between two
	// nodes while traffic is driven (never during set-up); 0 means no fault
	// layer at all.
	linkDelay time.Duration
	// keys are preloaded, each with a value of valueSize bytes.
	keys, valueSize int
	// zipf is the popularity exponent of key picks; 0 picks uniformly.
	zipf float64
	// clients is the number of closed-loop clients; client i plays
	// roles[i%2] and enters the ring through node i.
	clients   int
	roles     [2]role
	scanLimit int
}

// workloads returns the workloads BENCHMARK.json lists, the ones the driver
// runs. Sizes are set so that one set-up takes about two seconds on the
// two-core reference box: a run sets up three times and must fit the
// driver's per-run budget.
func workloads() []spec {
	return []spec{
		{
			name: "kv-lan", why: "8 TCP nodes, r=3 w=2, WAL fsync=interval, uniform get/put/delete over 12k keys: transport and handler dominate, caches are bypassed",
			nodes: 8, tcp: true, caps: degreedist.Constant(16), replicas: 3, writeConcern: 2, fsync: "interval",
			keys: 12000, valueSize: 256, clients: 2, roles: point(0.50, 0.45, 0.05),
		},
		{
			name: "put-wal", why: "3 TCP nodes, r=1, WAL fsync=interval, 70% put over 20k keys: one hop, so handler, store and WAL append under the node mutex dominate",
			nodes: 3, tcp: true, caps: degreedist.Constant(16), replicas: 1, writeConcern: 1, fsync: "interval",
			keys: 20000, valueSize: 64, clients: 2, roles: point(0.30, 0.70, 0),
		},
		{
			name: "read-zipf-wan", why: "64 in-memory nodes, mixed caps, 1 ms per message, 16 clients, Zipf 80% get: hops and cache hits set latency, codec and WAL do nothing",
			nodes: 64, caps: degreedist.Stepped{2, 3, 4, 8}, replicas: 3, writeConcern: 1, linkDelay: time.Millisecond,
			keys: 20000, valueSize: 256, zipf: 1.1, clients: 16, roles: point(0.80, 0.20, 0),
		},
		{
			name: "scan-insert", why: "4 TCP nodes, r=2: one client scans 4096 items, one inserts new keys: sorted-slice inserts against page copies under one mutex",
			nodes: 4, tcp: true, caps: degreedist.Constant(16), replicas: 2, writeConcern: 1, fsync: "interval",
			keys: 20000, valueSize: 100, clients: 2, roles: [2]role{{scan: true}, {insert: true}}, scanLimit: 4096,
		},
	}
}

// manualWorkloads returns the workloads --workload accepts beyond those the
// driver runs. put-fsync is put-wal with an fsync before every
// acknowledgement: the fsync inside the handler dominates, a Get can queue
// behind another key's fsync under the node mutex, and two writers are the
// smallest case where group commit could batch. The sandbox's disk sets its
// numbers, and they move by 25-40% between runs of one commit, too much to
// gate on: run it in pairs by hand.
func manualWorkloads() []spec {
	sp := workloads()[1]
	sp.name, sp.fsync = "put-fsync", "always"
	sp.why = "put-wal with fsync=always: the WAL fsync inside the handler dominates"
	return []spec{sp}
}

func point(get, put, del float64) [2]role {
	r := role{get: get, put: put, del: del}
	return [2]role{r, r}
}

// readKind is the operation the workload's read metrics are taken from: the
// scan where a client scans, the get elsewhere.
func (sp *spec) readKind() opKind {
	if sp.roles[0].scan || sp.roles[1].scan {
		return kScan
	}
	return kGet
}

func workloadByName(name string) (spec, bool) {
	for _, sp := range append(workloads(), manualWorkloads()...) {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// ring is one booted overlay.
type ring struct {
	nodes []*oscar.Node
	keys  []oscar.Key
	// dirs is each node's data directory (nil for a memory-only ring), all
	// under root.
	dirs []string
	root string
	// wrap is what every node's transport is wrapped in: the tracer's
	// recorder and, on a ring with a link delay, the fault layer fnet (which
	// adds nothing until the delay is switched on).
	wrap func(transport.Transport) transport.Transport
	fnet *faultnet.Network
}

// forAll runs fn on every open node at once, the way Cluster.StabilizeAll
// does: the live overlay has no global scheduler.
func (r *ring) forAll(fn func(*oscar.Node)) {
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(n)
		}()
	}
	wg.Wait()
}

func (r *ring) stabilizeAll(ctx context.Context) {
	r.forAll(func(n *oscar.Node) { n.Stabilize(ctx) })
}

// close shuts every node down and removes the ring's data directories.
func (r *ring) close() error {
	var first error
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.root != "" {
		if err := os.RemoveAll(r.root); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// nodeConfig is the configuration of TCP node i of the ring.
func (sp *spec) nodeConfig(i int, key oscar.Key, seed int64, dir string, wrap func(transport.Transport) transport.Transport) oscar.NodeConfig {
	caps := sp.caps.Sample(rng.DeriveN(seed, "node-caps", i))
	cfg := oscar.NodeConfig{
		Listen: "127.0.0.1:0", Key: key, MaxIn: caps, MaxOut: caps, Seed: seed + int64(i),
		Replicas: sp.replicas, WriteConcern: sp.writeConcern, WrapTransport: wrap,
	}
	if dir != "" {
		cfg.DataDir, cfg.Fsync = dir, sp.fsync
	}
	return cfg
}

// boot starts the ring: every node joins through the first, then three
// stabilisation rounds and one rewiring pass. tmp is where data directories
// go.
func boot(ctx context.Context, sp *spec, seed int64, tr *tracer, tmp string) (*ring, error) {
	r := &ring{wrap: tr.wrap(layerTransport, true)}
	if sp.linkDelay > 0 {
		r.fnet = faultnet.New(seed)
		inner, outer := r.wrap, tr.wrap(layerFaultnet, false)
		r.wrap = func(t transport.Transport) transport.Transport { return outer(r.fnet.Wrap(inner(t))) }
	}
	if !sp.tcp {
		c, err := oscar.StartCluster(ctx, sp.nodes,
			oscar.WithSeed(seed), oscar.WithKeys(oscar.GnutellaKeys()), oscar.WithDegrees(sp.caps),
			oscar.WithReplicas(sp.replicas), oscar.WithWriteConcern(sp.writeConcern),
			oscar.WithStabilizeRounds(3), oscar.WithTransportWrapper(r.wrap))
		if err != nil {
			return nil, fmt.Errorf("boot %s: %w", sp.name, err)
		}
		r.nodes = c.Nodes()
		for _, n := range r.nodes {
			r.keys = append(r.keys, n.Key())
		}
		return r, nil
	}
	if sp.fsync != "" {
		root, err := os.MkdirTemp(tmp, sp.name+"-")
		if err != nil {
			return nil, fmt.Errorf("boot %s: %w", sp.name, err)
		}
		r.root = root
	}
	keyRand := rng.Derive(seed, "node-keys")
	for i := 0; i < sp.nodes; i++ {
		dir := ""
		if r.root != "" {
			dir = filepath.Join(r.root, fmt.Sprintf("node-%d", i))
		}
		// Node i sits near quantile (i+½)/nodes of the key distribution:
		// peers position themselves where the data is, so each owns about
		// the same share of it whatever the seed. Keys sampled freely gave
		// the two entry nodes anything from 2% to 30% of the data, and the
		// share of operations that stay local moved every metric with it.
		q := (float64(i) + 0.25 + 0.5*keyRand.Float64()) / float64(sp.nodes)
		key := keydist.Quantile(oscar.GnutellaKeys(), q)
		n, err := oscar.StartNode(sp.nodeConfig(i, key, seed, dir, r.wrap))
		if err == nil && i > 0 {
			if err = n.Join(ctx, r.nodes[0].Addr()); err != nil {
				_ = n.Close()
			}
		}
		if err != nil {
			_ = r.close()
			return nil, fmt.Errorf("boot %s node %d: %w", sp.name, i, err)
		}
		r.nodes, r.keys, r.dirs = append(r.nodes, n), append(r.keys, key), append(r.dirs, dir)
	}
	for round := 0; round < 3; round++ {
		r.stabilizeAll(ctx)
	}
	var rewireErr error
	var mu sync.Mutex
	r.forAll(func(n *oscar.Node) {
		if err := n.Rewire(ctx); err != nil {
			mu.Lock()
			rewireErr = err
			mu.Unlock()
		}
	})
	if rewireErr != nil {
		_ = r.close()
		return nil, fmt.Errorf("boot %s: rewire: %w", sp.name, rewireErr)
	}
	return r, nil
}

// setUp boots the ring and preloads it with the two clients as loaders, each
// putting its own stripe through its own entry node. It returns the ring and
// the clients, whose models now hold version 1 of every key.
func setUp(ctx context.Context, sp *spec, seed int64, tr *tracer, tmp string) (*ring, []*client, error) {
	r, err := boot(ctx, sp, seed, tr, tmp)
	if err != nil {
		return nil, nil, err
	}
	clients := newClients(sp, seed, r, tr)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.preload(ctx)
		}()
	}
	wg.Wait()
	for _, c := range clients {
		if c.failed > 0 {
			_ = r.close()
			return nil, nil, fmt.Errorf("set up %s: preload: %s", sp.name, c.errs[0])
		}
	}
	return r, clients, nil
}
