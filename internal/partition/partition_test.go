package partition

import (
	"math/rand"
	"testing"

	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/ring"
)

// buildNet creates n peers with keys from dist, ring-stitched, each with a
// few random long-range links for walk mixing.
func buildNet(t *testing.T, n int, dist keydist.Distribution, seed int64) (*graph.Network, *ring.Ring) {
	t.Helper()
	g := graph.New()
	r := ring.New(g)
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		node := g.Add(dist.Sample(rnd), 64, 64)
		r.Insert(node.ID)
	}
	for i := 0; i < n; i++ {
		for l := 0; l < 8; l++ {
			_ = g.AddLink(graph.NodeID(i), graph.NodeID(rnd.Intn(n)))
		}
	}
	return g, r
}

func TestBuildExactHalving(t *testing.T) {
	g, r := buildNet(t, 1024, keydist.Uniform{}, 1)
	u := graph.NodeID(0)
	p := BuildExact(g, r, u)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Expected levels: ~log2(1023) ≈ 10.
	if p.Count() < 9 || p.Count() > 12 {
		t.Errorf("levels = %d, want ≈10", p.Count())
	}
	// Population halving: partition i holds ≈ n/2^(i+1) peers.
	for i := 0; i < p.Count() && i < 5; i++ {
		got := r.CountAliveInRange(p.Range(i))
		want := 1024 >> uint(i+1)
		if got < want/2 || got > want*2 {
			t.Errorf("partition %d holds %d peers, want ≈%d", i, got, want)
		}
	}
}

func TestBuildExactCoversPopulation(t *testing.T) {
	g, r := buildNet(t, 257, keydist.GnutellaLike(), 2)
	u := graph.NodeID(13)
	p := BuildExact(g, r, u)
	total := 0
	for i := 0; i < p.Count(); i++ {
		total += r.CountAliveInRange(p.Range(i))
	}
	// Partitions tile the circle minus u. If another peer shares u's key it
	// may be counted once more; with random 64-bit keys that has vanishing
	// probability.
	if total != g.AliveCount()-1 {
		t.Errorf("partitions cover %d peers, want %d", total, g.AliveCount()-1)
	}
}

func TestBuildExactDisjoint(t *testing.T) {
	g, r := buildNet(t, 200, keydist.GnutellaLike(), 3)
	p := BuildExact(g, r, graph.NodeID(7))
	seen := map[graph.NodeID]int{}
	for i := 0; i < p.Count(); i++ {
		for _, id := range r.AliveInRange(p.Range(i)) {
			seen[id]++
			if seen[id] > 1 {
				t.Fatalf("peer %d appears in multiple partitions", id)
			}
		}
	}
	if seen[7] != 0 {
		t.Error("the node itself must not belong to any partition")
	}
}

func TestBuildExactTinyNetworks(t *testing.T) {
	// n=2: exactly one partition containing the other peer.
	g := graph.New()
	r := ring.New(g)
	a := g.Add(100, 4, 4)
	b := g.Add(200, 4, 4)
	r.Insert(a.ID)
	r.Insert(b.ID)
	p := BuildExact(g, r, a.ID)
	if p.Count() != 1 {
		t.Fatalf("n=2: levels = %d, want 1", p.Count())
	}
	if !p.Range(0).Contains(b.Key) {
		t.Error("n=2: partition must contain the peer")
	}
	// n=1: no partitions.
	g1 := graph.New()
	r1 := ring.New(g1)
	solo := g1.Add(1, 4, 4)
	r1.Insert(solo.ID)
	if p := BuildExact(g1, r1, solo.ID); p.Count() != 0 {
		t.Errorf("n=1: levels = %d, want 0", p.Count())
	}
}

func TestRangesTileCircle(t *testing.T) {
	g, r := buildNet(t, 300, keydist.GnutellaLike(), 8)
	p := BuildExact(g, r, graph.NodeID(0))
	rs := p.Ranges()
	if len(rs) != p.Count() {
		t.Fatalf("Ranges length %d vs Count %d", len(rs), p.Count())
	}
	// Consecutive ranges must be adjacent: Range(i).Start == Range(i+1).End.
	for i := 1; i < len(rs); i++ {
		if rs[i].End != rs[i-1].Start {
			t.Errorf("range %d not adjacent to %d: %v vs %v", i, i-1, rs[i], rs[i-1])
		}
	}
	// The first range ends at the node key; the whole tiling is anchored there.
	if rs[0].End != p.NodeKey {
		t.Error("far half must end at the node key")
	}
}

func TestCheckInvariantsCatchesBadBorders(t *testing.T) {
	p := &Partitions{NodeKey: 100, Borders: []keyspace.Key{100}}
	if err := p.CheckInvariants(); err == nil {
		t.Error("border equal to node key must be rejected")
	}
	p = &Partitions{NodeKey: 100, Borders: []keyspace.Key{500, 900}}
	if err := p.CheckInvariants(); err == nil {
		t.Error("borders moving away from the node must be rejected")
	}
	p = &Partitions{NodeKey: 100, Borders: []keyspace.Key{900, 500, 200}}
	if err := p.CheckInvariants(); err != nil {
		t.Errorf("valid borders rejected: %v", err)
	}
}
