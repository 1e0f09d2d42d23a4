// Micro-benchmarks of the simulator's hot paths: wiring one peer, median
// estimation, greedy routing and the graph and ring primitives. The paper's
// figures and tables come from cmd/oscar-bench (make paper), not from here.
package oscar

import (
	"context"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/mercury"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/sampling"
	"github.com/oscar-overlay/oscar/internal/sim"
)

// benchSize is the size of the networks the micro-benchmarks run on
// (Gnutella-like keys, constant caps of 27: sim.DefaultConfig).
const benchSize = 1200

var (
	benchMu    sync.Mutex
	benchCache = map[sim.System]*sim.Sim{}
)

// builtNetwork memoises one grown and rewired network per system across
// benchmarks.
func builtNetwork(b *testing.B, system sim.System) *sim.Sim {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchCache[system]; ok {
		return s
	}
	cfg := sim.DefaultConfig()
	cfg.TargetSize = benchSize
	cfg.Checkpoints = []int{benchSize}
	cfg.System = system
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.GrowTo(benchSize)
	s.RewireAll()
	benchCache[system] = s
	return s
}

// BenchmarkWirePeer times one full Oscar rewiring of a single peer
// (partition discovery by walks + link acquisition).
func BenchmarkWirePeer(b *testing.B) {
	s := builtNetwork(b, sim.SystemOscar)
	ids := s.Net().AliveIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.RewireOne(ids[i%len(ids)])
	}
}

// BenchmarkMercuryWirePeer times one Mercury rewiring (histogram sampling +
// harmonic draws).
func BenchmarkMercuryWirePeer(b *testing.B) {
	s := builtNetwork(b, sim.SystemMercury)
	ids := s.Net().AliveIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.RewireOne(ids[i%len(ids)])
	}
}

// BenchmarkMedianEstimation times one restricted-walk median estimate over
// the full circle: the chained walk of partition discovery's first level.
func BenchmarkMedianEstimation(b *testing.B) {
	s := builtNetwork(b, sim.SystemOscar)
	net, rnd := s.Net(), rng.Derive(3, "median-bench")
	ids := net.AliveIDs()
	ctx, full := context.Background(), keyspace.FullRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		nbrs, _ := net.Neighbors(ctx, id, full)
		samples, _, err := sampling.SampleChain(ctx, net, rnd, id, nbrs, full, core.DefaultConfig().Samples, core.SampleSteps)
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]keyspace.Key, len(samples))
		for j, p := range samples {
			keys[j] = net.Node(p).Key
		}
		_ = sampling.MedianFrom(net.Node(id).Key, keys)
	}
}

// BenchmarkGreedyRouting times one fault-free lookup and reports the
// average search cost.
func BenchmarkGreedyRouting(b *testing.B) {
	s := builtNetwork(b, sim.SystemOscar)
	qr := rng.Derive(7, b.Name())
	totalCost := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := s.Ring().RandomAlive(qr)
		target := s.Net().Node(s.Ring().RandomAlive(qr)).Key
		res := sim.Route(s.Net(), from, target, routing.Clockwise)
		if !res.Found {
			b.Fatal("lookup failed")
		}
		totalCost += res.Cost()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalCost)/float64(b.N), "cost/query")
}

// BenchmarkRingOwnerLookup times the ring ownership primitive.
func BenchmarkRingOwnerLookup(b *testing.B) {
	s := builtNetwork(b, sim.SystemOscar)
	r := rng.Derive(9, "owner-bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Ring().OwnerOf(keyspace.Key(r.Uint64()))
	}
}

// BenchmarkMercuryHistogram times building + inverting Mercury's histogram.
func BenchmarkMercuryHistogram(b *testing.B) {
	r := rng.Derive(4, "hist-bench")
	keys := keydist.SampleN(keydist.GnutellaLike(), r, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := mercury.NewHistogram(50, keys)
		_ = h.InvertFrom(keyspace.Key(r.Uint64()), r.Float64())
	}
}

// BenchmarkGraphAddLink times the admission-controlled link primitive.
func BenchmarkGraphAddLink(b *testing.B) {
	g := graph.New()
	const n = 4096
	for i := 0; i < n; i++ {
		g.Add(keyspace.Key(i), 1<<30, 1<<30)
	}
	r := rng.Derive(5, "link-bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := graph.NodeID(r.Intn(n))
		to := graph.NodeID(r.Intn(n))
		if err := g.AddLink(from, to); err == nil && i%8 == 7 {
			g.DropLinks(from) // keep lists from growing unboundedly
		}
	}
}
