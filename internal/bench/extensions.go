package bench

import (
	"fmt"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/metrics"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/sim"
)

// AblationRouting compares the clockwise non-overshooting router against the
// bidirectional strict-improvement router, healthy and at 33% churn.
func (h *Harness) AblationRouting() error {
	h.section("A4: routing-discipline ablation (clockwise vs bidirectional)",
		"bidirectional shortens paths slightly; with an instantly-stitched ring neither router ever backtracks (probes only)")
	s, err := h.buildAt(h.Scale.Target, sim.SystemOscar, degreedist.Constant(27), nil)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("router", "churn", "avg_cost", "p90", "probes/query", "backtracks/query", "failed")
	qr := rng.Derive(h.Seed, "ablation-routing")
	measure := func(name string, churned bool, disc routing.Discipline) {
		queries := h.Scale.Target
		if queries > 4000 {
			queries = 4000
		}
		var costs []float64
		var probes, backtracks, failed int
		for i := 0; i < queries; i++ {
			from := s.Ring().RandomAlive(qr)
			target := s.Net().Node(s.Ring().RandomAlive(qr)).Key
			res := sim.Route(s.Net(), from, target, disc)
			if !res.Found {
				failed++
				continue
			}
			costs = append(costs, float64(res.Cost()))
			probes += res.Probes
			backtracks += res.Backtracks
		}
		sum := metrics.Summarize(costs)
		churnLabel := "none"
		if churned {
			churnLabel = "33%"
		}
		tab.AddRow(name, churnLabel, sum.Mean, sum.P90,
			float64(probes)/float64(queries), float64(backtracks)/float64(queries), failed)
	}

	run := func(churned bool) {
		measure("clockwise", churned, routing.Clockwise)
		measure("bidirectional", churned, routing.Circular)
	}
	run(false)
	s.Churn(0.33)
	run(true)
	return h.emit("ablation-routing", tab)
}

// AccessSkew measures per-peer forwarding (transit) load under uniform vs
// Zipf-skewed target popularity — the "skewed access loads" of the paper's
// introduction, which consume disproportionate bandwidth on the hot range's
// owners.
func (h *Harness) AccessSkew() error {
	h.section("A5: access-skew workload (per-peer forwarding load)",
		"randomized links keep transit load flat under uniform access; a Zipf hot range concentrates load on the owners' neighbourhood, bounded by the fan-in of their partitions")
	s, err := h.buildAt(h.Scale.Target, sim.SystemOscar, degreedist.Constant(27), func(cfg *sim.Config) {
		cfg.QueriesPerMeasure = 4 * h.Scale.Target // denser sampling for tail percentiles
	})
	if err != nil {
		return err
	}
	tab := metrics.NewTable("target_popularity", "avg_cost", "transit_p50", "transit_p90", "transit_p99", "transit_max")
	for _, skew := range []float64{0, 0.8, 1.2} {
		m := s.MeasureLoad(skew)
		name := "uniform"
		if skew > 0 {
			name = fmt.Sprintf("zipf(%.1f)", skew)
		}
		tab.AddRow(name, m.AvgSearchCost, m.Transit.P50, m.Transit.P90, m.Transit.P99, m.Transit.Max)
	}
	return h.emit("access-skew", tab)
}
