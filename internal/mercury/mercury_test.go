package mercury

import (
	"math"
	"math/rand"
	"testing"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/ring"
)

func TestHistogramUniformKeys(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	keys := keydist.SampleN(keydist.Uniform{}, rnd, 10000)
	h := NewHistogram(20, keys)
	var total float64
	for _, m := range h.mass {
		total += m
		if m < 0.02 || m > 0.09 { // expect ≈0.05 per bucket
			t.Errorf("bucket mass %.3f far from uniform", m)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("masses sum to %g", total)
	}
}

func TestHistogramEmptyDefaultsUniform(t *testing.T) {
	h := NewHistogram(10, nil)
	for _, m := range h.mass {
		if math.Abs(m-0.1) > 1e-12 {
			t.Errorf("empty histogram bucket %g, want 0.1", m)
		}
	}
}

func TestInvertFromUniform(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	keys := keydist.SampleN(keydist.Uniform{}, rnd, 50000)
	h := NewHistogram(50, keys)
	// With uniform keys, advancing fraction f of the population ≈ advancing
	// fraction f of the key space.
	for _, f := range []float64{0.1, 0.3, 0.5, 0.9} {
		from := keyspace.FromFloat(0.2)
		got := h.InvertFrom(from, f).Float()
		want := math.Mod(0.2+f, 1)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("InvertFrom(0.2, %g) = %.3f, want ≈%.3f", f, got, want)
		}
	}
}

func TestInvertFromZeroFraction(t *testing.T) {
	h := NewHistogram(10, nil)
	from := keyspace.FromFloat(0.37)
	if got := h.InvertFrom(from, 0); got != from {
		t.Error("zero fraction must return the origin")
	}
}

func TestInvertFromSkipsEmptyBuckets(t *testing.T) {
	// All mass in [0.5, 0.6): inverting any fraction from 0 must land there.
	var keys []keyspace.Key
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		keys = append(keys, keyspace.FromFloat(0.5+0.1*rnd.Float64()))
	}
	h := NewHistogram(10, keys)
	for _, f := range []float64{0.1, 0.5, 0.9} {
		got := h.InvertFrom(0, f).Float()
		if got < 0.5 || got >= 0.6 {
			t.Errorf("InvertFrom(0, %g) = %.3f, want inside [0.5,0.6)", f, got)
		}
	}
}

// TestResolutionFailureOnSpikes demonstrates the documented Mercury failure
// mode this reproduction relies on: a needle spike much narrower than a
// bucket gets smeared over the whole bucket, so rank→key translation inside
// the spike is off by orders of magnitude in population terms.
func TestResolutionFailureOnSpikes(t *testing.T) {
	// 90% of peers inside a needle of width 1e-4 around 0.35.
	var keys []keyspace.Key
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		if rnd.Float64() < 0.9 {
			keys = append(keys, keyspace.FromFloat(0.35+1e-4*rnd.Float64()))
		} else {
			keys = append(keys, keyspace.FromFloat(rnd.Float64()))
		}
	}
	h := NewHistogram(50, keys) // bucket width 0.02 ≫ needle width 1e-4
	// Ask for the key at population fraction 0.5 from 0: truly ≈0.35005
	// (the middle of the needle). Mercury smears the needle across its
	// bucket, so the returned key, although close in *key* distance, lands
	// at a wildly wrong *population rank* — the quantity links depend on.
	got := h.InvertFrom(0, 0.5).Float()
	truePopFrac := func(x float64) float64 {
		needleLo, needleW := 0.35, 1e-4
		inNeedle := math.Min(math.Max((x-needleLo)/needleW, 0), 1)
		return 0.9*inNeedle + 0.1*x
	}
	rankErr := math.Abs(truePopFrac(got) - 0.5)
	if rankErr < 0.2 {
		t.Errorf("population-rank error %.3f too small; the resolution failure mode vanished (key %.5f)", rankErr, got)
	}
	if got < 0.34 || got > 0.37 {
		t.Errorf("median estimate %.4f not even in the right bucket", got)
	}
}

func buildPopulation(t *testing.T, n, caps int, dist keydist.Distribution, seed int64) (*graph.Network, *ring.Ring) {
	t.Helper()
	g := graph.New()
	r := ring.New(g)
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		node := g.Add(dist.Sample(rnd), caps, caps)
		r.Insert(node.ID)
	}
	return g, r
}

func TestWireRespectsCaps(t *testing.T) {
	g, r := buildPopulation(t, 300, 10, keydist.GnutellaLike(), 5)
	walk := rand.New(rand.NewSource(6))
	rnd := rand.New(rand.NewSource(7))
	for _, id := range g.AliveIDs() {
		Wire(g, r, walk, id, DefaultConfig(), g.AliveCount(), rnd)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g.ForEachAlive(func(n *graph.Node) {
		if n.InDeg() > n.MaxIn || len(n.Out) > n.MaxOut {
			t.Errorf("node %d violates caps", n.ID)
		}
	})
}

func TestWireMakesMostLinks(t *testing.T) {
	g, r := buildPopulation(t, 400, 16, keydist.Uniform{}, 8)
	walk := rand.New(rand.NewSource(9))
	rnd := rand.New(rand.NewSource(10))
	var stats core.WireStats
	for _, id := range g.AliveIDs() {
		st := Wire(g, r, walk, id, DefaultConfig(), g.AliveCount(), rnd)
		stats.Add(st)
	}
	if float64(stats.LinksMade) < 0.5*float64(stats.LinksWanted) {
		t.Errorf("mercury filled only %d/%d slots", stats.LinksMade, stats.LinksWanted)
	}
	if stats.SampleCost == 0 {
		t.Error("histogram sampling must cost messages")
	}
}

func TestWireTinyNetwork(t *testing.T) {
	g, r := buildPopulation(t, 2, 4, keydist.Uniform{}, 11)
	walk := rand.New(rand.NewSource(12))
	stats := Wire(g, r, walk, g.AliveIDs()[0], DefaultConfig(), 2, rand.New(rand.NewSource(13)))
	// n=2: the only candidate is the other peer; link should usually form.
	if stats.LinksWanted != 4 {
		t.Errorf("wanted = %d", stats.LinksWanted)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWireSingleton(t *testing.T) {
	g, r := buildPopulation(t, 1, 4, keydist.Uniform{}, 14)
	walk := rand.New(rand.NewSource(15))
	stats := Wire(g, r, walk, g.AliveIDs()[0], DefaultConfig(), 1, rand.New(rand.NewSource(16)))
	if stats.LinksMade != 0 {
		t.Error("singleton cannot link")
	}
}
