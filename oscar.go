// Package oscar is a data-oriented P2P overlay for heterogeneous
// environments — a Go implementation of the Oscar overlay (Girdzijauskas,
// Datta, Aberer; ICDE 2007).
//
// Oscar is an order-preserving (range-queriable) distributed index that
// tolerates two kinds of real-world skew at once: arbitrary key
// distributions (peers position themselves where the data is, so identifier
// density follows data density) and heterogeneous peer capacities (every
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
// experiments: topology only (no data), with a Mercury baseline and a
// global-knowledge Kleinberg reference for comparison and a churn model.
// cmd/oscar-bench regenerates every figure and table of the paper.
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

// Item is one stored record: a key and its value, as a Scanner yields it.
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
}

// Overlay is a simulated overlay network, modelling the paper's experiments
// inside one process. It holds topology only: it stores no data and is not a
// Client (StartNode and StartCluster run the message-passing runtime that
// is). All methods are safe for concurrent use: a single mutex serialises
// them.
type Overlay struct {
	mu  sync.Mutex
	sim *sim.Sim
	rnd *rand.Rand
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

	s, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	ov := &Overlay{
		sim: s,
		rnd: rng.Derive(cfg.Seed, "overlay-facade"),
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
	Successor     NodeID
	Predecessor   NodeID
}

// Info returns a snapshot of one peer.
func (o *Overlay) Info(id NodeID) NodeInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.sim.Net().Node(id)
	return NodeInfo{
		ID: n.ID, Key: n.Key,
		MaxIn: n.MaxIn, MaxOut: n.MaxOut,
		InDeg: n.InDeg(), OutDeg: len(n.Out),
		Alive: n.Alive, Successor: n.Succ, Predecessor: n.Pred,
	}
}

// Grow adds peers one at a time until the overlay has n alive peers.
func (o *Overlay) Grow(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sim.GrowTo(n)
}

// RewireAll rebuilds every peer's long-range links (the paper's periodic
// rewiring).
func (o *Overlay) RewireAll() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sim.RewireAll()
}

// Crash kills the given fraction of peers. The ring self-stabilises;
// long-range links to victims go stale until the next rewiring. It returns
// the number of peers killed.
func (o *Overlay) Crash(fraction float64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.sim.Churn(fraction))
}

// Lookup routes to the owner of key from a random peer.
func (o *Overlay) Lookup(key Key) Route {
	o.mu.Lock()
	defer o.mu.Unlock()
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

// CheckInvariants verifies graph and ring consistency (used by tests).
func (o *Overlay) CheckInvariants() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sim.CheckInvariants()
}
