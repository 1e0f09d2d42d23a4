// Package oscar is a data-oriented P2P overlay for heterogeneous
// environments — a Go implementation of the Oscar overlay (Girdzijauskas,
// Datta, Aberer; ICDE 2007).
//
// Oscar is an order-preserving (range-queriable) distributed index that
// tolerates two kinds of real-world skew at once: arbitrary key
// distributions (peers position themselves where the data is, so identifier
// density mirrors data density) and heterogeneous peer capacities (every
// peer chooses its own maximum in/out link budget). Long-range links are
// drawn from nested median-based partitions discovered by restricted random
// walks, which realises Kleinberg's harmonic small-world distribution over
// any key distribution with only O(log N) medians to learn.
//
// # Quick start
//
// The context-first Client interface is the public surface. One runtime
// implements it: message-passing peers, over in-memory channels in one
// process (StartCluster) or over TCP (StartNode):
//
//	c, err := oscar.StartCluster(ctx, 64, oscar.WithSeed(1))
//	if err != nil { ... }
//	defer c.Close()
//	res, err := c.Node(0).Lookup(ctx, oscar.KeyFromFloat(0.42))
//	fmt.Println(res.Cost)
//
//	node, err := oscar.StartNode(oscar.NodeConfig{Listen: "127.0.0.1:0", Key: oscar.KeyFromFloat(0.5)})
//	if err != nil { ... }
//	defer node.Close()
//	err = node.Join(ctx, "127.0.0.1:7001")
//
// Both are *Node, so application code does not depend on the transport.
// The Build/Overlay API is the graph-level simulator behind the paper's
// experiments: it bundles a Mercury baseline and a global-knowledge
// Kleinberg reference for comparison, a churn model, and an unreplicated
// per-peer ordered key-value layer with range queries; cmd/oscar-bench
// regenerates every figure and table of the paper.
package oscar

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/sim"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// Key is a position on the 2^64-point identifier circle. The overlay is
// order-preserving: map application keys onto the circle monotonically and
// range queries stay contiguous.
type Key = keyspace.Key

// Range is a half-open clockwise arc [Start, End) of the identifier circle.
type Range = keyspace.Range

// NodeID identifies a peer in one overlay.
type NodeID = graph.NodeID

// Route is the outcome of one lookup, including the message-cost breakdown.
type Route = routing.Result

// Measurement is a full metrics snapshot (search cost, degree volume,
// relative loads) as used by the paper's experiments.
type Measurement = sim.Measurement

// Item is one stored record of the data layer.
type Item = storage.Item

// KeyFromFloat maps a fraction in [0,1) onto the identifier circle.
func KeyFromFloat(f float64) Key { return keyspace.FromFloat(f) }

// KeyDistribution generates peer identifiers. Implementations bundled:
// UniformKeys, GnutellaKeys, ZipfKeys.
type KeyDistribution = keydist.Distribution

// DegreeDistribution generates per-peer link budgets (ρmax). Implementations
// bundled: ConstantDegrees, SteppedDegrees, RealisticDegrees.
type DegreeDistribution = degreedist.Distribution

// UniformKeys returns the uniform key distribution (what hash-based DHTs
// assume).
func UniformKeys() KeyDistribution { return keydist.Uniform{} }

// GnutellaKeys returns the bundled heavy-tailed, spiky key distribution
// standing in for the paper's Gnutella filename trace.
func GnutellaKeys() KeyDistribution { return keydist.GnutellaLike() }

// ZipfKeys returns a Zipf-popularity cluster distribution with the given
// number of sites and exponent.
func ZipfKeys(sites int, exponent float64) (KeyDistribution, error) {
	return keydist.NewZipf(sites, exponent, 0.002)
}

// ConstantDegrees gives every peer the same link budget.
func ConstantDegrees(cap int) DegreeDistribution { return degreedist.Constant(cap) }

// SteppedDegrees returns the paper's stepped budget distribution: uniform
// over {19, 23, 27, 39}, mean 27.
func SteppedDegrees() DegreeDistribution { return degreedist.PaperStepped() }

// RealisticDegrees returns the paper's synthetic spiky budget distribution
// (Figure 1a): power-law envelope with mass spikes at client defaults,
// mean 27.
func RealisticDegrees() DegreeDistribution { return degreedist.PaperRealistic() }

// Algorithm selects the overlay construction algorithm.
type Algorithm int

// Available construction algorithms.
const (
	// AlgorithmOscar is the paper's contribution (default).
	AlgorithmOscar Algorithm = iota
	// AlgorithmMercury is the uniform-resolution histogram baseline.
	AlgorithmMercury
	// AlgorithmKleinberg is the global-knowledge rank-harmonic reference.
	AlgorithmKleinberg
)

// Config configures Build. The zero value of every field has a sensible
// default; Config{} builds a 1000-peer Oscar overlay on Gnutella-like keys
// with constant budgets of 27.
type Config struct {
	// Size is the target peer count (default 1000).
	Size int
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed int64
	// Keys is the peer identifier distribution (default GnutellaKeys).
	Keys KeyDistribution
	// Degrees is the per-peer link budget distribution (default
	// ConstantDegrees(27)).
	Degrees DegreeDistribution
	// Algorithm selects the construction (default AlgorithmOscar).
	Algorithm Algorithm
	// DisablePowerOfTwo turns off the in-degree balancing rule (Oscar only).
	DisablePowerOfTwo bool
	// OraclePartitions uses exact global-knowledge medians instead of
	// random-walk estimates (Oscar only; for calibration).
	OraclePartitions bool
	// SampleSize and WalkSteps tune median estimation (0 = defaults).
	SampleSize, WalkSteps int
}

// Overlay is a simulated overlay network plus an unreplicated data layer,
// modelling the paper's experiments inside one process. It is not a Client:
// StartNode and StartCluster run the message-passing runtime that is. All
// methods are safe for concurrent use: a single mutex serialises
// operations, so concurrent callers observe the overlay as a sequentially
// consistent store.
type Overlay struct {
	mu     sync.Mutex
	sim    *sim.Sim
	stores map[NodeID]*storage.Store
	rnd    *rand.Rand
}

// Build grows an overlay from scratch to cfg.Size peers, performs one full
// rewiring pass, and returns it.
func Build(cfg Config) (*Overlay, error) {
	sc := sim.DefaultConfig()
	sc.Seed = cfg.Seed
	if cfg.Size > 0 {
		sc.TargetSize = cfg.Size
	} else {
		sc.TargetSize = 1000
	}
	sc.Checkpoints = []int{sc.TargetSize}
	if cfg.Keys != nil {
		sc.Keys = cfg.Keys
	}
	if cfg.Degrees != nil {
		sc.Degrees = cfg.Degrees
	}
	switch cfg.Algorithm {
	case AlgorithmOscar:
		sc.System = sim.SystemOscar
	case AlgorithmMercury:
		sc.System = sim.SystemMercury
	case AlgorithmKleinberg:
		sc.System = sim.SystemKleinberg
	default:
		return nil, fmt.Errorf("oscar: unknown algorithm %d", cfg.Algorithm)
	}
	sc.Oscar.PowerOfTwo = !cfg.DisablePowerOfTwo
	sc.Oscar.Oracle = cfg.OraclePartitions
	if cfg.SampleSize > 0 {
		sc.Oscar.Sample.Samples = cfg.SampleSize
	}
	if cfg.WalkSteps > 0 {
		sc.Oscar.Sample.Steps = cfg.WalkSteps
	}

	s, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	ov := &Overlay{
		sim:    s,
		stores: make(map[NodeID]*storage.Store),
		rnd:    rng.Derive(cfg.Seed, "overlay-facade"),
	}
	ov.Grow(sc.TargetSize)
	s.RewireAll()
	return ov, nil
}

// Size returns the number of alive peers.
func (o *Overlay) Size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sim.Net().AliveCount()
}

// Nodes returns the ids of all alive peers.
func (o *Overlay) Nodes() []NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sim.Net().AliveIDs()
}

// NodeInfo describes one peer.
type NodeInfo struct {
	ID            NodeID
	Key           Key
	MaxIn, MaxOut int
	InDeg, OutDeg int
	Alive         bool
	StoredItems   int
	Successor     NodeID
	Predecessor   NodeID
}

// Info returns a snapshot of one peer.
func (o *Overlay) Info(id NodeID) NodeInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.infoLocked(id)
}

func (o *Overlay) infoLocked(id NodeID) NodeInfo {
	n := o.sim.Net().Node(id)
	info := NodeInfo{
		ID: n.ID, Key: n.Key,
		MaxIn: n.MaxIn, MaxOut: n.MaxOut,
		InDeg: n.InDeg(), OutDeg: len(n.Out),
		Alive: n.Alive, Successor: n.Succ, Predecessor: n.Pred,
	}
	if st := o.stores[id]; st != nil {
		info.StoredItems = st.Len()
	}
	return info
}

// Grow adds peers one at a time until the overlay has n alive peers,
// migrating stored items to each joining peer (it takes over the arc
// (pred, self] from its successor).
func (o *Overlay) Grow(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.sim.Net().AliveCount() < n {
		id := o.sim.AddPeer()
		node := o.sim.Net().Node(id)
		succStore := o.stores[node.Succ]
		if succStore == nil || node.Succ == id {
			continue
		}
		pred := o.sim.Net().Node(node.Pred)
		arc := Range{Start: pred.Key + 1, End: node.Key + 1} // (pred, self]
		if moved := succStore.ExtractRange(arc); len(moved) > 0 {
			o.storeFor(id).InsertBulk(moved)
		}
	}
}

// RewireAll rebuilds every peer's long-range links (the paper's periodic
// rewiring).
func (o *Overlay) RewireAll() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sim.RewireAll()
}

// Crash kills the given fraction of peers. The ring self-stabilises;
// long-range links to victims go stale until the next rewiring; items stored
// on victims are lost (the data layer is an index, not a replicated store).
// It returns the number of peers killed.
func (o *Overlay) Crash(fraction float64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	victims := o.sim.Churn(fraction)
	for _, id := range victims {
		delete(o.stores, id)
	}
	return len(victims)
}

// Lookup routes to the owner of key from a random peer.
func (o *Overlay) Lookup(key Key) Route {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lookupLocked(key)
}

func (o *Overlay) lookupLocked(key Key) Route {
	return o.lookupFromLocked(o.sim.Ring().RandomAlive(o.rnd), key)
}

// LookupFrom routes to the owner of key from a specific peer. On a network
// that has suffered crashes, routing automatically probes and backtracks
// around stale links.
func (o *Overlay) LookupFrom(from NodeID, key Key) Route {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lookupFromLocked(from, key)
}

func (o *Overlay) lookupFromLocked(from NodeID, key Key) Route {
	if o.sim.Net().Len() > o.sim.Net().AliveCount() {
		return routing.GreedyBacktrack(o.sim.Net(), o.sim.Ring(), from, key)
	}
	return routing.Greedy(o.sim.Net(), o.sim.Ring(), from, key)
}

// Measure runs the paper's measurement pass: lookups between random peers
// plus degree-volume and load statistics.
func (o *Overlay) Measure() Measurement {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sim.Measure(o.sim.Net().Len() > o.sim.Net().AliveCount())
}

// storeFor returns (creating if needed) the primary store of peer id.
func (o *Overlay) storeFor(id NodeID) *storage.Store {
	st := o.stores[id]
	if st == nil {
		st = &storage.Store{}
		o.stores[id] = st
	}
	return st
}

// PutResult reports a data-layer write.
type PutResult struct {
	// Owner is the peer now holding the item.
	Owner NodeID
	// Cost is the routing message cost to reach it.
	Cost int
	// Replaced reports whether an existing value was overwritten.
	Replaced bool
}

// Put routes from a random peer to the owner of key and stores the value
// there.
func (o *Overlay) Put(key Key, value []byte) (PutResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	route := o.lookupLocked(key)
	if !route.Found {
		return PutResult{}, fmt.Errorf("oscar: put %v: routing failed", key)
	}
	replaced := o.storeFor(route.Owner).Put(key, value)
	return PutResult{Owner: route.Owner, Cost: route.Cost(), Replaced: replaced}, nil
}

// Get routes to the owner of key and returns the stored value, if any,
// along with the routing cost.
func (o *Overlay) Get(key Key) (value []byte, found bool, cost int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	route := o.lookupLocked(key)
	if !route.Found {
		return nil, false, route.Cost(), fmt.Errorf("oscar: get %v: routing failed", key)
	}
	if st := o.stores[route.Owner]; st != nil {
		value, found = st.Get(key)
	}
	return value, found, route.Cost(), nil
}

// DeleteResult reports a data-layer delete.
type DeleteResult struct {
	// Owner is the peer that held (or would have held) the item.
	Owner NodeID
	// Cost is the routing message cost to reach it.
	Cost int
	// Existed reports whether an item was actually removed.
	Existed bool
}

// Delete routes to the owner of key and removes the stored item, if any.
func (o *Overlay) Delete(key Key) (DeleteResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	route := o.lookupLocked(key)
	if !route.Found {
		return DeleteResult{}, fmt.Errorf("oscar: delete %v: routing failed", key)
	}
	res := DeleteResult{Owner: route.Owner, Cost: route.Cost()}
	if st := o.stores[route.Owner]; st != nil {
		res.Existed = st.Delete(key)
	}
	return res, nil
}

// RangeResult reports a range query.
type RangeResult struct {
	// Items are the matching records in clockwise key order.
	Items []Item
	// Cost is the total message cost: routing to the range start plus one
	// hop per additional peer scanned along the ring.
	Cost int
	// PeersScanned is the number of peers whose shards contributed.
	PeersScanned int
}

// RangeQuery returns up to limit items with keys in [start, end): it routes
// to the owner of start and walks ring successors until the arc is covered —
// the non-exact query class that order-preserving overlays exist for.
// limit <= 0 means no limit. start == end would be the full circle and is
// refused with ErrBadRange, as Client.Scan refuses it.
func (o *Overlay) RangeQuery(start, end Key, limit int) (RangeResult, error) {
	if start == end {
		return RangeResult{}, fmt.Errorf("%w: start == end (full-circle range query; split into two ranges)", ErrBadRange)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	rg := Range{Start: start, End: end}
	route := o.lookupLocked(start)
	if !route.Found {
		return RangeResult{}, fmt.Errorf("oscar: range query: routing failed")
	}
	res := RangeResult{Cost: route.Cost()}
	net := o.sim.Net()
	cur := route.Owner
	for {
		res.PeersScanned++
		if st := o.stores[cur]; st != nil {
			st.Scan(rg, func(it Item) bool {
				if limit > 0 && len(res.Items) >= limit {
					return false
				}
				res.Items = append(res.Items, it)
				return true
			})
		}
		if limit > 0 && len(res.Items) >= limit {
			return res, nil
		}
		node := net.Node(cur)
		// The successor is the next shard clockwise; stop once the current
		// peer's key has passed the end of the arc (its successor's shard
		// starts beyond the range).
		if node.Succ == cur || !rg.Contains(node.Key) {
			// Current owner's arc extends past `end` (it owns keys up to its
			// own key ≥ end), so the scan is complete.
			return res, nil
		}
		cur = node.Succ
		res.Cost++
		if res.PeersScanned > net.AliveCount() {
			return res, fmt.Errorf("oscar: range query did not terminate")
		}
	}
}

// CheckInvariants verifies graph and ring consistency (used by tests).
func (o *Overlay) CheckInvariants() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sim.CheckInvariants()
}
