// Package sim is the experiment engine: it reproduces the paper's §3
// methodology — "a simulation of the bootstrap of the Oscar network starting
// from scratch and simulating the network growth until it reaches 10000
// peers", with periodic rewiring of all peers' long-range links and
// performance measurements (average search cost of N random queries) along
// the way, under configurable key distributions, degree-cap distributions
// and churn.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/oscar-overlay/oscar/internal/churn"
	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/mercury"
	"github.com/oscar-overlay/oscar/internal/metrics"
	"github.com/oscar-overlay/oscar/internal/partition"
	"github.com/oscar-overlay/oscar/internal/ring"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/smallworld"
)

// System selects the overlay construction algorithm under test.
type System int

// The systems the harness can build.
const (
	// SystemOscar is the paper's contribution.
	SystemOscar System = iota
	// SystemMercury is the histogram-based baseline.
	SystemMercury
	// SystemKleinberg is the global-knowledge rank-harmonic reference.
	SystemKleinberg
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case SystemOscar:
		return "oscar"
	case SystemMercury:
		return "mercury"
	case SystemKleinberg:
		return "kleinberg"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// Config describes one simulation run.
type Config struct {
	// Seed drives every stochastic component (bit-reproducible runs).
	Seed int64
	// TargetSize is the final peer count (the paper grows to 10000).
	TargetSize int
	// SeedSize is the bootstrap population wired as a plain ring before
	// growth begins.
	SeedSize int
	// Checkpoints are network sizes at which all peers are rewired and the
	// network is measured. Empty means {TargetSize}.
	Checkpoints []int
	// Keys is the peer-identifier distribution (the paper uses the
	// Gnutella filename distribution).
	Keys keydist.Distribution
	// Degrees yields per-peer ρmax caps. With SeparateInOut false the same
	// draw is used for ρmax_in and ρmax_out (the paper's setup keeps their
	// means equal at 27).
	Degrees       degreedist.Distribution
	SeparateInOut bool
	// System selects the construction algorithm.
	System System
	// Oscar and Mercury tune the respective algorithms.
	Oscar   core.Config
	Mercury mercury.Config
	// QueriesPerMeasure is the query count per measurement; 0 uses the
	// current network size (the paper's "N random queries").
	QueriesPerMeasure int
}

// DefaultConfig returns the paper's baseline setup: growth to 10000 peers,
// Gnutella-like keys, constant caps of 27, checkpoints every 1000 peers.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		TargetSize:  10000,
		SeedSize:    8,
		Checkpoints: []int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000},
		Keys:        keydist.GnutellaLike(),
		Degrees:     degreedist.Constant(27),
		System:      SystemOscar,
		Oscar:       core.DefaultConfig(),
		Mercury:     mercury.DefaultConfig(),
	}
}

// Measurement is one checkpoint's metrics.
type Measurement struct {
	// Size is the alive peer count at measurement time.
	Size int
	// Queries is the number of lookups measured.
	Queries int
	// AvgSearchCost is the mean message cost per lookup (hops, plus probes
	// and backtracks under churn) — the paper's performance metric.
	AvgSearchCost float64
	// Search summarises the per-lookup costs.
	Search metrics.Summary
	// Failed counts lookups that exhausted their hop budget (0 in healthy
	// networks).
	Failed int
	// AvgHops, AvgProbes, AvgBacktracks decompose the cost under churn.
	AvgHops, AvgProbes, AvgBacktracks float64
	// DegreeVolume is Σ in-degree / Σ ρmax_in over alive peers: the
	// fraction of offered in-degree capacity the construction exploited.
	DegreeVolume float64
	// RelativeLoads is each alive peer's in-degree/ρmax_in, sorted
	// ascending (Figure 1b's curve).
	RelativeLoads []float64
	// AvgLinksMade / AvgLinksWanted report out-link slot fill.
	AvgLinksMade, AvgLinksWanted float64
	// AvgLevels is the mean partition count per Oscar peer (≈ log₂ N).
	AvgLevels float64
	// Transit summarises per-peer forwarding load (lookups transiting each
	// alive peer, per query) — only filled by MeasureLoad.
	Transit metrics.Summary
}

// Result is a full run: one Measurement per checkpoint.
type Result struct {
	Config      Config
	Checkpoints []Measurement
}

// Sim holds a running simulation. Methods are not safe for concurrent use.
type Sim struct {
	cfg  Config
	net  *graph.Network
	ring *ring.Ring

	keyRand    *rand.Rand
	capRand    *rand.Rand
	wireRand   *rand.Rand
	walkRand   *rand.Rand // Mercury's sampling walks
	queryRand  *rand.Rand
	churnRand  *rand.Rand
	lastLevels float64 // mean partition count from the latest full rewire
}

// New validates the configuration and prepares an empty simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.TargetSize < 2 {
		return nil, fmt.Errorf("sim: TargetSize %d too small", cfg.TargetSize)
	}
	if cfg.SeedSize < 2 {
		cfg.SeedSize = 2
	}
	if cfg.SeedSize > cfg.TargetSize {
		cfg.SeedSize = cfg.TargetSize
	}
	if cfg.Keys == nil {
		return nil, fmt.Errorf("sim: Keys distribution is required")
	}
	if cfg.Degrees == nil {
		return nil, fmt.Errorf("sim: Degrees distribution is required")
	}
	if len(cfg.Checkpoints) == 0 {
		cfg.Checkpoints = []int{cfg.TargetSize}
	}
	sorted := append([]int(nil), cfg.Checkpoints...)
	sort.Ints(sorted)
	if sorted[len(sorted)-1] > cfg.TargetSize {
		return nil, fmt.Errorf("sim: checkpoint %d beyond TargetSize %d", sorted[len(sorted)-1], cfg.TargetSize)
	}
	cfg.Checkpoints = sorted

	net := graph.New()
	s := &Sim{
		cfg:       cfg,
		net:       net,
		ring:      ring.New(net),
		keyRand:   rng.Derive(cfg.Seed, "keys"),
		capRand:   rng.Derive(cfg.Seed, "caps"),
		wireRand:  rng.Derive(cfg.Seed, "wire"),
		walkRand:  rng.Derive(cfg.Seed, "walk"),
		queryRand: rng.Derive(cfg.Seed, "query"),
		churnRand: rng.Derive(cfg.Seed, "churn"),
	}
	return s, nil
}

// Net exposes the underlying network (read-mostly: examples and tests).
func (s *Sim) Net() *graph.Network { return s.net }

// Ring exposes the underlying ring.
func (s *Sim) Ring() *ring.Ring { return s.ring }

// Config returns the validated configuration.
func (s *Sim) Config() Config { return s.cfg }

// addPeer creates one peer with sampled key and caps, splices it into the
// ring, and wires its long-range links with the configured algorithm.
func (s *Sim) addPeer() *graph.Node {
	key := s.cfg.Keys.Sample(s.keyRand)
	maxIn := s.cfg.Degrees.Sample(s.capRand)
	maxOut := maxIn
	if s.cfg.SeparateInOut {
		maxOut = s.cfg.Degrees.Sample(s.capRand)
	}
	n := s.net.Add(key, maxIn, maxOut)
	s.ring.Insert(n.ID)
	s.RewireOne(n.ID)
	return n
}

// RewireOne (re)wires a single peer's long-range links and returns the
// wiring stats.
func (s *Sim) RewireOne(id graph.NodeID) core.WireStats {
	switch s.cfg.System {
	case SystemOscar:
		return WireOscar(s.net, s.ring, id, s.cfg.Oscar, s.wireRand)
	case SystemMercury:
		return mercury.Wire(s.net, s.ring, s.walkRand, id, s.cfg.Mercury, s.net.AliveCount(), s.wireRand)
	case SystemKleinberg:
		// The reference construction wires globally at RewireAll time;
		// joining peers ride the ring until then.
		return core.WireStats{}
	default:
		panic("sim: unknown system")
	}
}

// WireOscar rebuilds peer id's long-range links with the Oscar
// construction, drawing from rnd, in the order of the paper's simulation:
// the peer drops its links before it discovers its borders, and a draw of
// a peer it already links competes and spends its slot (core.Relink
// without skipLinked). The live node's core.Wire keeps its links up while
// it discovers and skips such a draw. With cfg.Oracle the exact borders of
// partition.BuildExact and exact uniform draws from the ring feed the same
// slot loop.
func WireOscar(net *graph.Network, rg *ring.Ring, id graph.NodeID, cfg core.Config, rnd *rand.Rand) core.WireStats {
	p, ctx := Peer{Network: net, Ring: rg, ID: id}, context.Background()
	net.DropLinks(id)
	if cfg.Oracle {
		_, st, _ := core.Relink(ctx, p, partition.BuildExact(net, rg, id), p.oracleDraw, cfg.PowerOfTwo, false, seqRand{rnd})
		return st
	}
	parts, msgs, _ := core.Discover(ctx, p, cfg.Samples, seqRand{rnd})
	_, st, _ := core.Relink(ctx, p, parts, core.WalkDraw[graph.NodeID](p), cfg.PowerOfTwo, false, seqRand{rnd})
	st.SampleCost = msgs
	return st
}

// seqRand is the stream of a peer whose draws run one after the other
// (Peer.Parallel): each draws from the peer's stream itself, so no split
// stream is seeded (seeding a math/rand source costs ~12.5 µs).
type seqRand struct{ *rand.Rand }

func (r seqRand) Split() *rand.Rand { return r.Rand }

// Peer is one simulated peer as the construction's substrate
// (core.Substrate). The graph answers at once, routing a draw to its
// partition costs nothing (the paper's search cost does not charge it),
// and draws run one after the other.
type Peer struct {
	*graph.Network
	Ring *ring.Ring
	ID   graph.NodeID
}

func (p Peer) Self() graph.NodeID               { return p.ID }
func (p Peer) Key(id graph.NodeID) keyspace.Key { return p.Node(id).Key }
func (p Peer) MaxOut() int                      { return p.Node(p.ID).MaxOut }
func (p Peer) Release(context.Context)          { p.DropLinks(p.ID) }

func (p Peer) LocalNeighbors(rg keyspace.Range) []graph.NodeID {
	// No error: the peer wiring is alive and inside every range it walks.
	nbrs, _ := p.Neighbors(context.Background(), p.ID, rg)
	return nbrs
}

func (p Peer) Successor() graph.NodeID {
	if succ := p.Node(p.ID).Succ; succ != graph.NoNode {
		return succ
	}
	return p.ID
}

func (p Peer) Owner(_ context.Context, k keyspace.Key) (graph.NodeID, int, error) {
	return p.Ring.OwnerOf(k), 0, nil
}

func (p Peer) Load(_ context.Context, id graph.NodeID) (float64, error) {
	return p.Node(id).InLoad(), nil
}

func (p Peer) Link(_ context.Context, id graph.NodeID) error { return p.AddLink(p.ID, id) }

func (p Peer) Parallel(k int, fn func(i int)) {
	for i := range k {
		fn(i)
	}
}

// oracleDraw is the ablation's exact uniform draw inside rg.
func (p Peer) oracleDraw(_ context.Context, rnd *rand.Rand, rg keyspace.Range) (graph.NodeID, int, bool) {
	id := p.Ring.RandomAliveInRange(rnd, rg)
	return id, 0, id != graph.NoNode
}

// GrowTo adds peers until the alive population reaches n.
func (s *Sim) GrowTo(n int) {
	for s.net.AliveCount() < n {
		s.addPeer()
	}
}

// AddPeer adds exactly one peer (sampled key and caps, ring splice, join
// wiring) and returns its id.
func (s *Sim) AddPeer() graph.NodeID {
	return s.addPeer().ID
}

// RewireAll rebuilds every alive peer's long-range links in random order —
// the paper's periodic rewiring. It returns aggregate wiring stats.
func (s *Sim) RewireAll() core.WireStats {
	if s.cfg.System == SystemKleinberg {
		return smallworld.WireAll(s.net, s.ring, smallworld.Retries, s.wireRand)
	}
	ids := s.net.AliveIDs()
	s.wireRand.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var total core.WireStats
	for _, id := range ids {
		st := s.RewireOne(id)
		total.Add(st)
	}
	if len(ids) > 0 {
		s.lastLevels = float64(total.Levels) / float64(len(ids))
	}
	return total
}

// Churn kills the given fraction of alive peers; the ring re-stitches
// (self-stabilisation) while long-range links to the victims go stale.
func (s *Sim) Churn(fraction float64) []graph.NodeID {
	return churn.KillFraction(s.net, s.ring, fraction, s.churnRand)
}

// Measure runs lookups and collects the checkpoint metrics. faulty selects
// the backtracking router (churned networks); otherwise plain greedy.
func (s *Sim) Measure(faulty bool) Measurement {
	queries := s.cfg.QueriesPerMeasure
	if queries <= 0 {
		queries = s.net.AliveCount()
	}
	m := Measurement{Size: s.net.AliveCount(), Queries: queries}

	costs := make([]float64, 0, queries)
	var hops, probes, backtracks int
	for i := 0; i < queries; i++ {
		from := s.ring.RandomAlive(s.queryRand)
		target := s.net.Node(s.ring.RandomAlive(s.queryRand)).Key
		var res routing.Result
		if faulty {
			res = routing.GreedyBacktrack(s.net, s.ring, from, target)
		} else {
			res = routing.Greedy(s.net, s.ring, from, target)
		}
		if !res.Found {
			m.Failed++
			continue
		}
		costs = append(costs, float64(res.Cost()))
		hops += res.Hops
		probes += res.Probes
		backtracks += res.Backtracks
	}
	m.Search = metrics.Summarize(costs)
	m.AvgSearchCost = m.Search.Mean
	if n := len(costs); n > 0 {
		m.AvgHops = float64(hops) / float64(n)
		m.AvgProbes = float64(probes) / float64(n)
		m.AvgBacktracks = float64(backtracks) / float64(n)
	}

	// Degree-volume utilisation and per-peer relative loads (Fig 1b, T1).
	var inSum, capSum, outMade, outWanted int
	s.net.ForEachAlive(func(n *graph.Node) {
		inSum += n.InDeg()
		capSum += n.MaxIn
		outWanted += n.MaxOut
		made := 0
		for _, t := range n.Out {
			if s.net.Node(t).Alive {
				made++
			}
		}
		outMade += made
		m.RelativeLoads = append(m.RelativeLoads, n.InLoad())
	})
	if capSum > 0 {
		m.DegreeVolume = float64(inSum) / float64(capSum)
	}
	if alive := s.net.AliveCount(); alive > 0 {
		m.AvgLinksMade = float64(outMade) / float64(alive)
		m.AvgLinksWanted = float64(outWanted) / float64(alive)
	}
	sort.Float64s(m.RelativeLoads)
	m.AvgLevels = s.lastLevels
	return m
}

// MeasureLoad runs a measurement like Measure but with target popularity
// skew and per-peer transit-load accounting: targets are the keys of alive
// peers drawn by Zipf rank (exponent skew) over the key-ordered population,
// modelling a hot range of popular items; skew 0 means uniform. The
// returned Measurement additionally carries the Transit summary (per-peer
// forwarded lookups per query).
func (s *Sim) MeasureLoad(faulty bool, skew float64) Measurement {
	queries := s.cfg.QueriesPerMeasure
	if queries <= 0 {
		queries = s.net.AliveCount()
	}
	m := Measurement{Size: s.net.AliveCount(), Queries: queries}
	alive := s.ring.AliveOrdered()
	zipfCum := zipfRanks(len(alive), skew)
	transits := make(map[graph.NodeID]int, len(alive))

	costs := make([]float64, 0, queries)
	for i := 0; i < queries; i++ {
		from := s.ring.RandomAlive(s.queryRand)
		var target keyspace.Key
		if skew <= 0 {
			target = s.net.Node(alive[s.queryRand.Intn(len(alive))]).Key
		} else {
			r := sort.SearchFloat64s(zipfCum, s.queryRand.Float64())
			if r >= len(alive) {
				r = len(alive) - 1
			}
			target = s.net.Node(alive[r]).Key
		}
		var res routing.Result
		if faulty {
			res = routing.GreedyBacktrack(s.net, s.ring, from, target)
		} else {
			res = routing.Greedy(s.net, s.ring, from, target)
		}
		if !res.Found {
			m.Failed++
			continue
		}
		costs = append(costs, float64(res.Cost()))
		for _, id := range res.Path[1:] { // transits exclude the source
			transits[id]++
		}
	}
	m.Search = metrics.Summarize(costs)
	m.AvgSearchCost = m.Search.Mean
	loads := make([]float64, 0, len(alive))
	for _, id := range alive {
		loads = append(loads, float64(transits[id])/float64(queries))
	}
	m.Transit = metrics.Summarize(loads)
	return m
}

// zipfRanks returns the cumulative Zipf(s) distribution over n ranks
// (nil when skew <= 0).
func zipfRanks(n int, s float64) []float64 {
	if s <= 0 || n == 0 {
		return nil
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// Run executes the full growth schedule: grow to each checkpoint, rewire all
// peers, check the graph and ring invariants, measure, continue; it returns
// one Measurement per checkpoint.
func (s *Sim) Run() (*Result, error) {
	res := &Result{Config: s.cfg}
	for _, cp := range s.cfg.Checkpoints {
		s.GrowTo(cp)
		s.RewireAll()
		if err := s.CheckInvariants(); err != nil {
			return res, fmt.Errorf("sim: invariant violation at size %d: %w", cp, err)
		}
		res.Checkpoints = append(res.Checkpoints, s.Measure(false))
	}
	return res, nil
}

// CheckInvariants verifies graph and ring consistency.
func (s *Sim) CheckInvariants() error {
	if err := s.net.CheckInvariants(); err != nil {
		return err
	}
	return s.ring.CheckInvariants()
}
