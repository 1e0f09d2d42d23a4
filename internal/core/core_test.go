package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/partition"
	"github.com/oscar-overlay/oscar/internal/ring"
	"github.com/oscar-overlay/oscar/internal/sim"
)

var bg = context.Background()

// buildPopulation creates n ring-stitched peers with the given caps and keys
// drawn from dist; no long links yet.
func buildPopulation(t *testing.T, n, maxIn, maxOut int, dist keydist.Distribution, seed int64) (*graph.Network, *ring.Ring) {
	t.Helper()
	g := graph.New()
	r := ring.New(g)
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		node := g.Add(dist.Sample(rnd), maxIn, maxOut)
		r.Insert(node.ID)
	}
	return g, r
}

// wireAll wires every node once in random order.
func wireAll(g *graph.Network, r *ring.Ring, cfg core.Config, seed int64) core.WireStats {
	rnd := rand.New(rand.NewSource(seed))
	ids := g.AliveIDs()
	rnd.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var total core.WireStats
	for _, id := range ids {
		total.Add(sim.WireOscar(g, r, id, cfg, rnd))
	}
	return total
}

func TestWireRespectsCaps(t *testing.T) {
	g, r := buildPopulation(t, 300, 8, 8, keydist.Uniform{}, 1)
	wireAll(g, r, core.DefaultConfig(), 2)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g.ForEachAlive(func(n *graph.Node) {
		if n.InDeg() > n.MaxIn {
			t.Errorf("node %d exceeded in cap: %d > %d", n.ID, n.InDeg(), n.MaxIn)
		}
		if len(n.Out) > n.MaxOut {
			t.Errorf("node %d exceeded out cap: %d > %d", n.ID, len(n.Out), n.MaxOut)
		}
	})
}

func TestWireOracleMode(t *testing.T) {
	g, r := buildPopulation(t, 300, 12, 12, keydist.GnutellaLike(), 3)
	cfg := core.DefaultConfig()
	cfg.Oracle = true
	stats := wireAll(g, r, cfg, 4)
	if stats.SampleCost != 0 || stats.PickCost != 0 {
		t.Error("oracle mode must not spend walk messages")
	}
	if float64(stats.LinksMade) < 0.7*float64(stats.LinksWanted) {
		t.Errorf("oracle wiring filled only %d/%d slots", stats.LinksMade, stats.LinksWanted)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWireSampledFillsSlots(t *testing.T) {
	g, r := buildPopulation(t, 400, 16, 16, keydist.GnutellaLike(), 5)
	stats := wireAll(g, r, core.DefaultConfig(), 6)
	if float64(stats.LinksMade) < 0.7*float64(stats.LinksWanted) {
		t.Errorf("sampled wiring filled only %d/%d slots", stats.LinksMade, stats.LinksWanted)
	}
	if stats.SampleCost == 0 || stats.PickCost == 0 {
		t.Error("sampled mode must account walk messages")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWireLevelsGrowLogarithmically(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Oracle = true
	var levels [2]float64
	for i, n := range []int{128, 1024} {
		g, r := buildPopulation(t, n, 16, 16, keydist.Uniform{}, 7)
		stats := wireAll(g, r, cfg, 8)
		levels[i] = float64(stats.Levels) / float64(n)
	}
	// log2(1024)/log2(128) = 10/7: the ratio must be clearly sub-linear.
	if levels[1] < levels[0] || levels[1] > levels[0]*2 {
		t.Errorf("levels at n=128: %.1f, at n=1024: %.1f — not logarithmic growth", levels[0], levels[1])
	}
}

// TestHarmonicRankDistribution verifies the core theoretical property: with
// oracle partitions, out-link targets follow the rank-harmonic distribution
// P(rank r) ∝ 1/r regardless of the key distribution — the paper's central
// claim (links chosen partition-uniform × peer-uniform are rank-harmonic).
func TestHarmonicRankDistribution(t *testing.T) {
	for _, dist := range []keydist.Distribution{keydist.Uniform{}, keydist.GnutellaLike()} {
		const n = 1024
		g, r := buildPopulation(t, n, 64, 16, dist, 9)
		cfg := core.DefaultConfig()
		cfg.Oracle = true
		cfg.PowerOfTwo = false // measure the raw draw, not the balancer
		wireAll(g, r, cfg, 10)

		// Collect clockwise rank of every link target.
		alive := r.AliveOrdered()
		pos := make(map[graph.NodeID]int, n)
		for i, id := range alive {
			pos[id] = i
		}
		var logRanks []float64
		g.ForEachAlive(func(nd *graph.Node) {
			for _, tgt := range nd.Out {
				rank := pos[tgt] - pos[nd.ID]
				if rank < 0 {
					rank += n
				}
				logRanks = append(logRanks, math.Log(float64(rank)))
			}
		})
		// For P(r) ∝ 1/r over [1,n], log(rank) is ≈ uniform over [0, ln n]:
		// mean ≈ ln(n)/2. A uniform-rank draw would give mean ≈ ln(n)-1.
		var sum float64
		for _, lr := range logRanks {
			sum += lr
		}
		mean := sum / float64(len(logRanks))
		want := math.Log(n) / 2
		if math.Abs(mean-want) > 0.8 {
			t.Errorf("%s: mean log-rank %.2f, want ≈%.2f (harmonic)", dist.Name(), mean, want)
		}
	}
}

// TestPowerOfTwoBalancesLoad compares in-degree spread with and without the
// two-choices rule: the paper employs it to balance relative degree load.
func TestPowerOfTwoBalancesLoad(t *testing.T) {
	spread := func(p2c bool) float64 {
		g, r := buildPopulation(t, 500, 27, 27, keydist.GnutellaLike(), 11)
		cfg := core.DefaultConfig()
		cfg.Oracle = true
		cfg.PowerOfTwo = p2c
		wireAll(g, r, cfg, 12)
		var loads []float64
		g.ForEachAlive(func(n *graph.Node) { loads = append(loads, n.InLoad()) })
		// Spread: std deviation of relative loads.
		var mean, ss float64
		for _, l := range loads {
			mean += l
		}
		mean /= float64(len(loads))
		for _, l := range loads {
			ss += (l - mean) * (l - mean)
		}
		return math.Sqrt(ss / float64(len(loads)))
	}
	with, without := spread(true), spread(false)
	if with >= without {
		t.Errorf("power-of-two should reduce load spread: with=%.4f without=%.4f", with, without)
	}
}

func TestWireDropsOldLinks(t *testing.T) {
	g, r := buildPopulation(t, 100, 16, 16, keydist.Uniform{}, 13)
	cfg := core.DefaultConfig()
	rnd := rand.New(rand.NewSource(14))
	id := g.AliveIDs()[0]
	sim.WireOscar(g, r, id, cfg, rnd)
	sim.WireOscar(g, r, id, cfg, rnd)
	if len(g.Node(id).Out) > g.Node(id).MaxOut {
		t.Error("rewiring must not accumulate links")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWireSingleton(t *testing.T) {
	g := graph.New()
	r := ring.New(g)
	n := g.Add(1, 4, 4)
	r.Insert(n.ID)
	stats := sim.WireOscar(g, r, n.ID, core.DefaultConfig(), rand.New(rand.NewSource(2)))
	if stats.LinksMade != 0 || stats.Levels != 0 {
		t.Errorf("singleton wired: %+v", stats)
	}
}

func TestWirePair(t *testing.T) {
	g := graph.New()
	r := ring.New(g)
	a := g.Add(100, 4, 4)
	b := g.Add(keyspace.Key(1)<<60, 4, 4)
	r.Insert(a.ID)
	r.Insert(b.ID)
	stats := sim.WireOscar(g, r, a.ID, core.DefaultConfig(), rand.New(rand.NewSource(2)))
	if stats.LinksMade == 0 {
		t.Error("a pair must be able to link")
	}
	if !g.Node(a.ID).HasOut(b.ID) {
		t.Error("the only possible target is the other peer")
	}
}

func TestZeroOutCapWiresNothing(t *testing.T) {
	g, r := buildPopulation(t, 50, 8, 8, keydist.Uniform{}, 16)
	n := g.Add(12345, 8, 0) // freeloader: accepts links, opens none
	r.Insert(n.ID)
	stats := sim.WireOscar(g, r, n.ID, core.DefaultConfig(), rand.New(rand.NewSource(18)))
	if stats.LinksMade != 0 || len(g.Node(n.ID).Out) != 0 {
		t.Error("zero out-cap peer must open no links")
	}
}

// linkedNet is buildPopulation plus a few random long-range links for walk
// mixing.
func linkedNet(t *testing.T, n int, dist keydist.Distribution, seed int64) (*graph.Network, *ring.Ring) {
	g, r := buildPopulation(t, n, 64, 64, dist, seed)
	rnd := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < n; i++ {
		for l := 0; l < 8; l++ {
			_ = g.AddLink(graph.NodeID(i), graph.NodeID(rnd.Intn(n)))
		}
	}
	return g, r
}

// discover runs core.Discover for peer u with 24 samples per median.
func discover(t *testing.T, g *graph.Network, r *ring.Ring, u graph.NodeID, seed int64) *partition.Partitions {
	t.Helper()
	p, _, err := core.Discover(bg, sim.Peer{Network: g, Ring: r, ID: u}, 24, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiscoverMatchesExactOnUniform(t *testing.T) {
	g, r := linkedNet(t, 512, keydist.Uniform{}, 4)
	u := graph.NodeID(3)
	exact := partition.BuildExact(g, r, u)
	sampled := discover(t, g, r, u, 5)
	if d := sampled.Count() - exact.Count(); d < -3 || d > 3 {
		t.Errorf("sampled levels %d vs exact %d", sampled.Count(), exact.Count())
	}
	// First border (global median from u) should be in the same ballpark:
	// within a quarter circle of the exact one.
	de := float64(exact.NodeKey.Distance(exact.Borders[0])) / math.Exp2(64)
	ds := float64(sampled.NodeKey.Distance(sampled.Borders[0])) / math.Exp2(64)
	if math.Abs(de-ds) > 0.25 {
		t.Errorf("first border at clockwise fraction %.3f (sampled) vs %.3f (exact)", ds, de)
	}
}

func TestDiscoverPartitionPopulations(t *testing.T) {
	// The core quality claim: even on a spiky distribution, sampled
	// partitions hold roughly geometrically decreasing populations.
	g, r := linkedNet(t, 1000, keydist.GnutellaLike(), 6)
	p := discover(t, g, r, graph.NodeID(11), 7)
	if p.Count() < 6 {
		t.Fatalf("only %d levels on n=1000", p.Count())
	}
	// The far half should hold between 25% and 75% of the population —
	// crude, but a uniform-resolution approach fails this on spiky keys.
	if far := r.CountAliveInRange(p.Range(0)); far < 250 || far > 750 {
		t.Errorf("far half holds %d of 1000 peers", far)
	}
}

func TestDiscoverSingleton(t *testing.T) {
	g := graph.New()
	r := ring.New(g)
	solo := g.Add(42, 4, 4)
	r.Insert(solo.ID)
	if p := discover(t, g, r, solo.ID, 1); p.Count() != 0 {
		t.Errorf("singleton: levels = %d", p.Count())
	}
}

func TestDiscoverPair(t *testing.T) {
	g := graph.New()
	r := ring.New(g)
	a := g.Add(100, 4, 4)
	b := g.Add(1<<60, 4, 4)
	r.Insert(a.ID)
	r.Insert(b.ID)
	p := discover(t, g, r, a.ID, 1)
	if p.Count() != 1 {
		t.Fatalf("pair: levels = %d, want 1", p.Count())
	}
	if !p.Range(0).Contains(b.Key) {
		t.Error("pair: partition must contain the peer")
	}
}

// splitRand gives every draw a stream of its own, as the live node does.
type splitRand struct{ *rand.Rand }

func (r splitRand) Split() *rand.Rand { return rand.New(rand.NewSource(r.Int63())) }

// TestWireCancelledKeepsLinks: a rebuild whose discovery is cancelled
// releases nothing — the graph counterpart of the live node's
// TestRewireCancelledKeepsLinks.
func TestWireCancelledKeepsLinks(t *testing.T) {
	g, r := buildPopulation(t, 100, 16, 16, keydist.Uniform{}, 19)
	wireAll(g, r, core.DefaultConfig(), 20)
	id := g.AliveIDs()[0]
	before := slices.Clone(g.Node(id).Out)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	out, _, err := core.Wire(ctx, sim.Peer{Network: g, Ring: r, ID: id}, core.DefaultConfig(), splitRand{rand.New(rand.NewSource(21))})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("cancelled wire returned %v, %v", out, err)
	}
	if !slices.Equal(g.Node(id).Out, before) {
		t.Errorf("cancelled wire left links %v, want %v", g.Node(id).Out, before)
	}
}

// goPeer runs a slot's draws and load probes on goroutines, as the live
// node does.
type goPeer struct{ sim.Peer }

func (p goPeer) Parallel(k int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// TestWireParallelDrawsDeterministic: with split streams, concurrent draws
// wire exactly the links sequential ones do, because each draw's stream is
// split off the node's before the draws start.
func TestWireParallelDrawsDeterministic(t *testing.T) {
	links := func(parallel bool) [][]graph.NodeID {
		g, r := buildPopulation(t, 200, 12, 12, keydist.GnutellaLike(), 22)
		rnd := splitRand{rand.New(rand.NewSource(23))}
		for _, id := range g.AliveIDs() {
			var s core.Substrate[graph.NodeID] = sim.Peer{Network: g, Ring: r, ID: id}
			if parallel {
				s = goPeer{sim.Peer{Network: g, Ring: r, ID: id}}
			}
			if _, _, err := core.Wire(bg, s, core.DefaultConfig(), rnd); err != nil {
				t.Fatal(err)
			}
		}
		var out [][]graph.NodeID
		g.ForEachAlive(func(n *graph.Node) { out = append(out, slices.Clone(n.Out)) })
		return out
	}
	seq, par := links(false), links(true)
	for i := range seq {
		if !slices.Equal(seq[i], par[i]) {
			t.Fatalf("node %d: parallel draws linked %v, sequential %v", i, par[i], seq[i])
		}
	}
}

// TestRelinkSkipLinked: the live node's discipline and the paper's differ
// only on a draw of a peer linked earlier in the pass. With skipLinked the
// other draw of the slot wins; without it the duplicate wins the load
// comparison and its slot stays open.
func TestRelinkSkipLinked(t *testing.T) {
	for _, skip := range []bool{false, true} {
		g := graph.New()
		r := ring.New(g)
		a := g.Add(1<<60, 4, 2)
		b := g.Add(2<<60, 100, 4)
		c := g.Add(3<<60, 2, 4)
		for _, n := range []*graph.Node{a, b, c} {
			r.Insert(n.ID)
		}
		if err := g.AddLink(b.ID, c.ID); err != nil { // c's load 0.5, b's ≤ 0.01
			t.Fatal(err)
		}
		draws := 0
		draw := func(context.Context, *rand.Rand, keyspace.Range) (graph.NodeID, int, bool) {
			draws++ // each slot draws b, then c
			if draws%2 == 1 {
				return b.ID, 0, true
			}
			return c.ID, 0, true
		}
		p := sim.Peer{Network: g, Ring: r, ID: a.ID}
		out, _, err := core.Relink(bg, p, partition.BuildExact(g, r, a.ID), draw, true, skip, splitRand{rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		want := []graph.NodeID{b.ID}
		if skip {
			want = append(want, c.ID)
		}
		if !slices.Equal(out, want) {
			t.Errorf("skipLinked=%v linked %v, want %v", skip, out, want)
		}
	}
}
