package sampling_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/ring"
	"github.com/oscar-overlay/oscar/internal/sampling"
)

var bg = context.Background()

// buildLine creates n peers with keys i*step on a stitched ring, plus a few
// random long-range links so walks can mix.
func buildLine(t *testing.T, n int, links int, seed int64) (*graph.Network, *ring.Ring) {
	t.Helper()
	g := graph.New()
	r := ring.New(g)
	step := keyspace.MaxKey / keyspace.Key(n)
	for i := 0; i < n; i++ {
		node := g.Add(keyspace.Key(i)*step, 64, 64)
		r.Insert(node.ID)
	}
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for l := 0; l < links; l++ {
			to := graph.NodeID(rnd.Intn(n))
			_ = g.AddLink(graph.NodeID(i), to) // self/dup errors are fine here
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return g, r
}

// countedGraph counts the neighbour messages a walk sends, by peer.
type countedGraph struct {
	*graph.Network
	calls int
	asked map[graph.NodeID]int
}

func (c *countedGraph) Neighbors(ctx context.Context, id graph.NodeID) ([]sampling.Neighbor[graph.NodeID], sampling.Load, error) {
	c.calls++
	if c.asked == nil {
		c.asked = make(map[graph.NodeID]int)
	}
	c.asked[id]++
	return c.Network.Neighbors(ctx, id)
}

// viewOf opens a view over g for the node self.
func viewOf(t *testing.T, g sampling.Graph[graph.NodeID], self graph.NodeID) *sampling.View[graph.NodeID] {
	t.Helper()
	own, _, err := g.Neighbors(bg, self)
	if err != nil {
		t.Fatal(err)
	}
	return sampling.NewView(g, self, own)
}

func TestWalkStaysInRange(t *testing.T) {
	g, _ := buildLine(t, 200, 4, 1)
	rnd := rand.New(rand.NewSource(2))
	// Range covering keys of peers 50..149.
	step := keyspace.MaxKey / 200
	rg := keyspace.Range{Start: 50 * step, End: 150 * step}
	start := graph.NodeID(70)
	for trial := 0; trial < 50; trial++ {
		end, _, err := sampling.Walk(bg, viewOf(t, g, start), rnd, start, rg, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !rg.Contains(g.Node(end).Key) {
			t.Fatalf("walk escaped the range: landed on key %v", g.Node(end).Key)
		}
	}
}

// TestWalkRejectsBadStart: the view refuses a start outside the walk's
// range without a message, and a dead start fails its fetch.
func TestWalkRejectsBadStart(t *testing.T) {
	g, _ := buildLine(t, 50, 2, 1)
	rnd := rand.New(rand.NewSource(2))
	step := keyspace.MaxKey / 50
	rg := keyspace.Range{Start: 10 * step, End: 20 * step}
	v := viewOf(t, g, 0)
	if _, msgs, err := sampling.Walk(bg, v, rnd, graph.NodeID(30), rg, 5); !errors.Is(err, sampling.ErrOutOfRange) || msgs != 0 {
		t.Errorf("out-of-range start: %d messages, err = %v", msgs, err)
	}
	g.Kill(graph.NodeID(12))
	if _, msgs, err := sampling.Walk(bg, v, rnd, graph.NodeID(12), rg, 5); !errors.Is(err, graph.ErrDead) || msgs != 1 {
		t.Errorf("dead start: %d messages, err = %v", msgs, err)
	}
}

func TestWalkSkipsDeadPeers(t *testing.T) {
	g, r := buildLine(t, 100, 3, 3)
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		r.Kill(graph.NodeID(rnd.Intn(100)))
	}
	alive := g.AliveIDs()
	start := alive[0]
	for trial := 0; trial < 100; trial++ {
		end, _, err := sampling.Walk(bg, viewOf(t, g, start), rnd, start, keyspace.FullRange(), 20)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Node(end).Alive {
			t.Fatal("walk landed on a dead peer")
		}
	}
}

// TestMHUniformity is the statistical heart of the walk: on an overlay
// with heterogeneous degrees, visit frequencies after mixing must be
// near-uniform rather than proportional to degree. The p2p package's
// TestMHUniformityLive holds the live node's walk to the same bound.
func TestMHUniformity(t *testing.T) {
	const n = 40
	g := graph.New()
	r := ring.New(g)
	step := keyspace.MaxKey / n
	for i := 0; i < n; i++ {
		node := g.Add(keyspace.Key(i)*step, 64, 64)
		r.Insert(node.ID)
	}
	// Heterogeneous: a hub (peer 0) linked to many peers; others sparse.
	for i := 1; i <= 20; i++ {
		if err := g.AddLink(0, graph.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rnd := rand.New(rand.NewSource(5))
	counts := make([]int, n)
	const trials = 30000
	for trial := 0; trial < trials; trial++ {
		start := graph.NodeID(trial % n)
		end, _, err := sampling.Walk(bg, viewOf(t, g, start), rnd, start, keyspace.FullRange(), 60)
		if err != nil {
			t.Fatal(err)
		}
		counts[end]++
	}
	want := float64(trials) / n
	// The hub must not be oversampled by more than ~35%; a plain (non-MH)
	// walk would oversample it by a factor of ~(22/2) ≈ 10.
	if float64(counts[0]) > want*1.35 {
		t.Errorf("hub visited %d times, uniform expectation %.0f: MH correction failing", counts[0], want)
	}
	// Chi-square-ish sanity: no peer wildly off.
	for i, c := range counts {
		if float64(c) < want*0.5 || float64(c) > want*1.6 {
			t.Errorf("peer %d visited %d times vs expectation %.0f", i, c, want)
		}
	}
}

func TestSampleChainCountAndCost(t *testing.T) {
	g, _ := buildLine(t, 100, 3, 6)
	cg := &countedGraph{Network: g}
	rnd := rand.New(rand.NewSource(7))
	own, _, err := g.Neighbors(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples, cost, err := sampling.SampleChain(bg, sampling.NewView[graph.NodeID](cg, 0, own), rnd, 0, keyspace.FullRange(), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Errorf("got %d samples", len(samples))
	}
	// One message per peer the chain proposes, the start's own list none:
	// at most the 50 moves, and never the same peer twice.
	if cost != cg.calls || cost == 0 || cost > 50 {
		t.Errorf("cost = %d for %d neighbour calls, want them equal and within 1..50", cost, cg.calls)
	}
	for id, c := range cg.asked {
		if c != 1 || id == 0 {
			t.Errorf("peer %d asked %d times", id, c)
		}
	}
}

func TestEstimateMedianOnUniformLine(t *testing.T) {
	g, _ := buildLine(t, 400, 6, 8)
	rnd := rand.New(rand.NewSource(9))
	samples, _, err := sampling.SampleChain(bg, viewOf(t, g, 0), rnd, 0, keyspace.FullRange(), 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]keyspace.Key, len(samples))
	for i, id := range samples {
		keys[i] = g.Node(id).Key
	}
	// True median from peer 0 over a uniform line is near the antipode.
	got := sampling.MedianFrom(g.Node(0).Key, keys).Float()
	if math.Abs(got-0.5) > 0.2 {
		t.Errorf("estimated median at fraction %.3f, want ≈0.5", got)
	}
}

func TestMedianFrom(t *testing.T) {
	// Keys clockwise from origin 0: 10, 20, 30, 40.
	keys := []keyspace.Key{30, 10, 40, 20}
	if m := sampling.MedianFrom(0, keys); m != 30 {
		t.Errorf("median = %v, want 30 (upper middle)", m)
	}
	if m := sampling.MedianFrom(0, []keyspace.Key{7}); m != 7 {
		t.Errorf("singleton median = %v", m)
	}
	if m := sampling.MedianFrom(5, nil); m != 5 {
		t.Errorf("empty median should fall back to origin, got %v", m)
	}
	// Wrapping: origin 100, keys at 150, 200, 50 (50 is farthest clockwise).
	if m := sampling.MedianFrom(100, []keyspace.Key{150, 200, 50}); m != 200 {
		t.Errorf("wrapped median = %v, want 200", m)
	}
}

func TestSingleNodeWalk(t *testing.T) {
	g := graph.New()
	r := ring.New(g)
	n := g.Add(5, 4, 4)
	r.Insert(n.ID)
	end, _, err := sampling.Walk(bg, viewOf(t, g, n.ID), rand.New(rand.NewSource(1)), n.ID, keyspace.FullRange(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if end != n.ID {
		t.Error("walk on a singleton must stay put")
	}
}
