// Benchmarks: one per paper table/figure (plus micro-benchmarks of the hot
// paths). Each figure benchmark builds its network once, times the measured
// operation (lookups for search-cost figures), and reports the figure's
// headline metric via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the quantitative story end to end. cmd/oscar-bench produces
// the full row-by-row tables.
package oscar

import (
	"fmt"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/mercury"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/sampling"
	"github.com/oscar-overlay/oscar/internal/sim"
)

// benchSize keeps figure benchmarks quick while preserving shapes; the full
// 10000-peer runs live in cmd/oscar-bench -full.
const benchSize = 1200

var (
	benchMu    sync.Mutex
	benchCache = map[string]*sim.Sim{}
)

// builtNetwork memoises grown networks across benchmarks.
func builtNetwork(b *testing.B, label string, build func() (*sim.Sim, error)) *sim.Sim {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchCache[label]; ok {
		return s
	}
	s, err := build()
	if err != nil {
		b.Fatal(err)
	}
	benchCache[label] = s
	return s
}

func buildSim(system sim.System, caps degreedist.Distribution, churnFrac float64) func() (*sim.Sim, error) {
	return func() (*sim.Sim, error) {
		cfg := sim.DefaultConfig()
		cfg.TargetSize = benchSize
		cfg.Checkpoints = []int{benchSize}
		cfg.Keys = keydist.GnutellaLike()
		cfg.Degrees = caps
		cfg.System = system
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		s.GrowTo(benchSize)
		s.RewireAll()
		if churnFrac > 0 {
			s.Churn(churnFrac)
		}
		return s, nil
	}
}

// lookupLoop times b.N greedy lookups on a prepared network and reports the
// average search cost — the paper's metric.
func lookupLoop(b *testing.B, s *sim.Sim, faulty bool) {
	b.Helper()
	qr := rng.Derive(7, b.Name())
	totalCost := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := s.Ring().RandomAlive(qr)
		target := s.Net().Node(s.Ring().RandomAlive(qr)).Key
		var res routing.Result
		if faulty {
			res = routing.GreedyBacktrack(s.Net(), s.Ring(), from, target)
		} else {
			res = routing.Greedy(s.Net(), s.Ring(), from, target)
		}
		if !res.Found {
			b.Fatal("lookup failed")
		}
		totalCost += res.Cost()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalCost)/float64(b.N), "cost/query")
}

// BenchmarkFig1a_DegreeSampling regenerates Figure 1(a)'s distribution:
// draws from the synthetic spiky degree pdf (mean 27).
func BenchmarkFig1a_DegreeSampling(b *testing.B) {
	d := degreedist.PaperRealistic()
	r := rng.Derive(1, "fig1a-bench")
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += d.Sample(r)
	}
	b.StopTimer()
	b.ReportMetric(float64(sum)/float64(b.N), "mean-degree")
}

// BenchmarkFig1b_RelativeDegreeLoad regenerates Figure 1(b): lookups on the
// three cap distributions, reporting the exploited degree volume.
func BenchmarkFig1b_RelativeDegreeLoad(b *testing.B) {
	for _, caps := range []degreedist.Distribution{
		degreedist.Constant(27), degreedist.PaperRealistic(), degreedist.PaperStepped(),
	} {
		b.Run(caps.Name(), func(b *testing.B) {
			s := builtNetwork(b, "oscar/"+caps.Name(), buildSim(sim.SystemOscar, caps, 0))
			m := s.Measure(false)
			lookupLoop(b, s, false)
			b.ReportMetric(m.DegreeVolume, "degree-volume")
		})
	}
}

// BenchmarkFig1c_SearchCost regenerates Figure 1(c): average search cost on
// the three cap distributions (the three sub-benchmarks should coincide).
func BenchmarkFig1c_SearchCost(b *testing.B) {
	for _, caps := range []degreedist.Distribution{
		degreedist.Constant(27), degreedist.PaperRealistic(), degreedist.PaperStepped(),
	} {
		b.Run(caps.Name(), func(b *testing.B) {
			s := builtNetwork(b, "oscar/"+caps.Name(), buildSim(sim.SystemOscar, caps, 0))
			lookupLoop(b, s, false)
		})
	}
}

// BenchmarkFig2a_ChurnConstant regenerates Figure 2(a): lookups under churn
// with constant caps (stale links probed and backtracked around).
func BenchmarkFig2a_ChurnConstant(b *testing.B) {
	for _, churn := range []float64{0, 0.10, 0.33} {
		b.Run(fmt.Sprintf("crash=%.0f%%", churn*100), func(b *testing.B) {
			label := fmt.Sprintf("churn-const-%.2f", churn)
			s := builtNetwork(b, label, buildSim(sim.SystemOscar, degreedist.Constant(27), churn))
			lookupLoop(b, s, churn > 0)
		})
	}
}

// BenchmarkFig2b_ChurnRealistic regenerates Figure 2(b): churn with the
// "realistic" spiky caps.
func BenchmarkFig2b_ChurnRealistic(b *testing.B) {
	for _, churn := range []float64{0, 0.10, 0.33} {
		b.Run(fmt.Sprintf("crash=%.0f%%", churn*100), func(b *testing.B) {
			label := fmt.Sprintf("churn-real-%.2f", churn)
			s := builtNetwork(b, label, buildSim(sim.SystemOscar, degreedist.PaperRealistic(), churn))
			lookupLoop(b, s, churn > 0)
		})
	}
}

// BenchmarkTable_DegreeVolume regenerates the in-text comparison T1:
// Oscar ≈85% vs Mercury ≈61% exploited degree volume.
func BenchmarkTable_DegreeVolume(b *testing.B) {
	for _, system := range []sim.System{sim.SystemOscar, sim.SystemMercury} {
		b.Run(system.String(), func(b *testing.B) {
			s := builtNetwork(b, system.String()+"/constant(27)",
				buildSim(system, degreedist.Constant(27), 0))
			m := s.Measure(false)
			lookupLoop(b, s, false)
			b.ReportMetric(m.DegreeVolume, "degree-volume")
		})
	}
}

// BenchmarkX1_HomogeneousComparison regenerates the context comparison: all
// three systems on skewed keys with homogeneous caps.
func BenchmarkX1_HomogeneousComparison(b *testing.B) {
	for _, system := range []sim.System{sim.SystemOscar, sim.SystemMercury, sim.SystemKleinberg} {
		b.Run(system.String(), func(b *testing.B) {
			s := builtNetwork(b, system.String()+"/constant(27)",
				buildSim(system, degreedist.Constant(27), 0))
			lookupLoop(b, s, false)
		})
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkWirePeer times one full Oscar rewiring of a single peer
// (partition discovery by walks + link acquisition).
func BenchmarkWirePeer(b *testing.B) {
	s := builtNetwork(b, "oscar/constant(27)", buildSim(sim.SystemOscar, degreedist.Constant(27), 0))
	ids := s.Net().AliveIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.RewireOne(ids[i%len(ids)])
	}
}

// BenchmarkMercuryWirePeer times one Mercury rewiring (histogram sampling +
// harmonic draws).
func BenchmarkMercuryWirePeer(b *testing.B) {
	s := builtNetwork(b, "mercury/constant(27)", buildSim(sim.SystemMercury, degreedist.Constant(27), 0))
	ids := s.Net().AliveIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.RewireOne(ids[i%len(ids)])
	}
}

// BenchmarkMedianEstimation times one restricted-walk median estimate over
// the full circle.
func BenchmarkMedianEstimation(b *testing.B) {
	s := builtNetwork(b, "oscar/constant(27)", buildSim(sim.SystemOscar, degreedist.Constant(27), 0))
	w := sampling.NewWalker(s.Net(), rng.Derive(3, "median-bench"))
	ids := s.Net().AliveIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.EstimateMedian(ids[i%len(ids)], keyspace.FullRange(), 12, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyRouting times one fault-free lookup.
func BenchmarkGreedyRouting(b *testing.B) {
	s := builtNetwork(b, "oscar/constant(27)", buildSim(sim.SystemOscar, degreedist.Constant(27), 0))
	lookupLoop(b, s, false)
}

// BenchmarkBacktrackRouting times one lookup with the churn-capable router
// on a healthy network (its overhead over plain greedy).
func BenchmarkBacktrackRouting(b *testing.B) {
	s := builtNetwork(b, "oscar/constant(27)", buildSim(sim.SystemOscar, degreedist.Constant(27), 0))
	lookupLoop(b, s, true)
}

// BenchmarkRingOwnerLookup times the ring ownership primitive.
func BenchmarkRingOwnerLookup(b *testing.B) {
	s := builtNetwork(b, "oscar/constant(27)", buildSim(sim.SystemOscar, degreedist.Constant(27), 0))
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
