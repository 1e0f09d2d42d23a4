package bench

import (
	"fmt"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/metrics"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/sim"
)

// fig1aDegrees are the support points printed for the degree pdf (log-ish
// spacing plus the spike locations).
var fig1aDegrees = []int{
	1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 24, 27, 32, 40, 50, 64, 80, 100, 128, 160, 200, 256,
}

// Fig1a prints the synthetic spiky node-degree distribution: analytic pmf
// and the empirical pmf of 100k draws.
func (h *Harness) Fig1a() error {
	h.section("Fig 1(a): synthetic spiky node-degree pdf (mean 27)",
		"log-log pdf over degrees 1..~256 spanning 1e-5..1e-1 with spikes at client defaults")
	d := degreedist.PaperRealistic()
	emp := metrics.NewIntPMF()
	r := rng.Derive(h.Seed, "fig1a")
	for i := 0; i < 100000; i++ {
		emp.Add(d.Sample(r))
	}
	tab := metrics.NewTable("degree", "pdf_analytic", "pdf_empirical")
	for _, deg := range fig1aDegrees {
		tab.AddRow(deg, d.Prob(deg), emp.Prob(deg))
	}
	if err := h.emit("fig1a", tab); err != nil {
		return err
	}
	fmt.Fprintf(h.Out, "# analytic mean %.4f (paper: 27)\n", d.Mean())
	return nil
}

// Fig1b prints the relative degree load curve (per-peer in-degree/ρmax_in,
// sorted ascending) at the target size for the three cap distributions, as
// deciles, plus the exploited degree volume.
func (h *Harness) Fig1b() error {
	h.section(fmt.Sprintf("Fig 1(b): relative degree load at n=%d (Gnutella keys)", h.Scale.Target),
		"all three cap distributions exploit ≈85% of the available degree volume; curves nearly coincide")
	tab := metrics.NewTable("caps", "volume", "load_p10", "load_p25", "load_p50", "load_p75", "load_p90", "load_max")
	for _, caps := range capDistributions() {
		h.logf("fig1b: building %s", caps.Name())
		s, err := h.buildAt(h.Scale.Target, sim.SystemOscar, caps, nil)
		if err != nil {
			return err
		}
		m := s.Measure()
		loads := m.RelativeLoads
		tab.AddRow(caps.Name(), m.DegreeVolume,
			metrics.Percentile(loads, 0.10), metrics.Percentile(loads, 0.25),
			metrics.Percentile(loads, 0.50), metrics.Percentile(loads, 0.75),
			metrics.Percentile(loads, 0.90), metrics.Percentile(loads, 1.0))
	}
	return h.emit("fig1b", tab)
}

// Fig1c prints average search cost vs network size for the three cap
// distributions.
func (h *Harness) Fig1c() error {
	h.section("Fig 1(c): search cost vs size, three in-degree distributions (Gnutella keys)",
		"the three curves are almost identical and grow logarithmically (≈8–13 at 10000 in the paper's units)")
	results := make(map[string][]sim.Measurement)
	var names []string
	for _, caps := range capDistributions() {
		h.logf("fig1c: growth run with %s", caps.Name())
		ms, err := h.growthRun(sim.SystemOscar, caps, nil)
		if err != nil {
			return err
		}
		results[caps.Name()] = ms
		names = append(names, caps.Name())
	}
	tab := metrics.NewTable("size", "cost_constant", "cost_realistic", "cost_stepped")
	for i, size := range h.Scale.GrowthCheckpoints {
		tab.AddRow(size,
			results[names[0]][i].AvgSearchCost,
			results[names[1]][i].AvgSearchCost,
			results[names[2]][i].AvgSearchCost)
	}
	return h.emit("fig1c", tab)
}

// churnFigure builds networks at each churn size, then measures at 0%, 10%
// and 33% cumulative crashes (killing is exchangeable, so killing 10% and
// topping up to 33% equals killing 33% outright).
func (h *Harness) churnFigure(name string, caps degreedist.Distribution) error {
	tab := metrics.NewTable("size", "cost_nofault", "cost_10pct", "cost_33pct", "probes_33pct", "backtracks_33pct")
	for _, size := range h.Scale.ChurnSizes {
		h.logf("%s: building n=%d", name, size)
		s, err := h.buildAt(size, sim.SystemOscar, caps, nil)
		if err != nil {
			return err
		}
		healthy := s.Measure()
		s.Churn(0.10)
		at10 := s.Measure()
		// Top up to 33% of the original population.
		remaining := float64(s.Net().AliveCount())
		extra := (0.33 - 0.10) * float64(size) / remaining
		s.Churn(extra)
		at33 := s.Measure()
		tab.AddRow(size, healthy.AvgSearchCost, at10.AvgSearchCost, at33.AvgSearchCost,
			at33.AvgProbes, at33.AvgBacktracks)
	}
	return h.emit(name, tab)
}

// Fig2a prints search cost under churn with constant caps.
func (h *Harness) Fig2a() error {
	h.section("Fig 2(a): churn, constant in-degree distribution (Gnutella keys)",
		"network remains navigable; cost ordering no-fault < 10% < 33%, all curves flat-ish in size")
	return h.churnFigure("fig2a", degreedist.Constant(27))
}

// Fig2b prints search cost under churn with the realistic caps.
func (h *Harness) Fig2b() error {
	h.section("Fig 2(b): churn, \"realistic\" in-degree distribution (Gnutella keys)",
		"same shape as Fig 2(a): heterogeneity does not hurt churn resilience")
	return h.churnFigure("fig2b", degreedist.PaperRealistic())
}

// Volume prints the degree-volume comparison (in-text table T1).
func (h *Harness) Volume() error {
	h.section(fmt.Sprintf("T1: exploited degree volume at n=%d, constant caps", h.Scale.Target),
		"Oscar ≈85% vs Mercury ≈61%")
	tab := metrics.NewTable("system", "volume", "avg_cost", "links_made/peer")
	for _, system := range []sim.System{sim.SystemOscar, sim.SystemMercury} {
		h.logf("volume: building %s", system)
		s, err := h.buildAt(h.Scale.Target, system, degreedist.Constant(27), nil)
		if err != nil {
			return err
		}
		m := s.Measure()
		tab.AddRow(system.String(), m.DegreeVolume, m.AvgSearchCost, m.AvgLinksMade)
	}
	return h.emit("volume", tab)
}

// Homog prints the homogeneous-caps search-cost comparison (context from
// [8]: Oscar outperforms Mercury on skewed keys; Kleinberg is the
// global-knowledge reference).
func (h *Harness) Homog() error {
	h.section("X1: homogeneous caps, Gnutella keys: Oscar vs Mercury vs Kleinberg",
		"Oscar ≈ Kleinberg reference; Mercury worse on skewed keys")
	type row struct {
		name string
		ms   []sim.Measurement
	}
	var rows []row
	for _, system := range []sim.System{sim.SystemOscar, sim.SystemMercury, sim.SystemKleinberg} {
		h.logf("homog: growth run %s", system)
		ms, err := h.growthRun(system, degreedist.Constant(27), nil)
		if err != nil {
			return err
		}
		rows = append(rows, row{system.String(), ms})
	}
	tab := metrics.NewTable("size", "cost_oscar", "cost_mercury", "cost_kleinberg")
	for i, size := range h.Scale.GrowthCheckpoints {
		tab.AddRow(size, rows[0].ms[i].AvgSearchCost, rows[1].ms[i].AvgSearchCost, rows[2].ms[i].AvgSearchCost)
	}
	return h.emit("homog", tab)
}

// AblationP2C compares the power-of-two-choices rule on and off.
func (h *Harness) AblationP2C() error {
	h.section("A1: power-of-two-choices ablation (constant caps)",
		"p2c flattens the load curve; without it the volume drops and spread widens")
	tab := metrics.NewTable("p2c", "volume", "load_p10", "load_p90", "load_std", "avg_cost")
	for _, p2c := range []bool{true, false} {
		s, err := h.buildAt(h.Scale.Target, sim.SystemOscar, degreedist.Constant(27), func(cfg *sim.Config) {
			cfg.Oscar.PowerOfTwo = p2c
		})
		if err != nil {
			return err
		}
		m := s.Measure()
		sum := metrics.Summarize(m.RelativeLoads)
		tab.AddRow(p2c, m.DegreeVolume,
			metrics.Percentile(m.RelativeLoads, 0.10),
			metrics.Percentile(m.RelativeLoads, 0.90),
			sum.Std, m.AvgSearchCost)
	}
	return h.emit("ablation-p2c", tab)
}

// AblationSamples sweeps the per-median sample count.
func (h *Harness) AblationSamples() error {
	h.section("A2: sample-size sweep (samples per median estimate)",
		"\"very good results in practice even with very low sample sizes\" — cost plateaus quickly")
	tab := metrics.NewTable("samples", "avg_cost", "p90_cost", "volume", "sample_msgs/peer")
	for _, samples := range []int{4, 8, 16, 32} {
		s, err := h.buildAt(h.Scale.Target, sim.SystemOscar, degreedist.Constant(27), func(cfg *sim.Config) {
			cfg.Oscar.Samples = samples
		})
		if err != nil {
			return err
		}
		ws := s.RewireAll() // rewire once more to measure steady-state sampling cost
		m := s.Measure()
		tab.AddRow(samples, m.AvgSearchCost, m.Search.P90, m.DegreeVolume,
			float64(ws.SampleCost)/float64(h.Scale.Target))
	}
	return h.emit("ablation-samples", tab)
}

// AblationOracle compares sampled medians against exact global-knowledge
// medians.
func (h *Harness) AblationOracle() error {
	h.section("A3: sampled vs oracle partitions",
		"sampled construction is within a small factor of the exact-median oracle")
	tab := metrics.NewTable("partitions", "avg_cost", "p90_cost", "volume", "levels")
	for _, oracle := range []bool{false, true} {
		s, err := h.buildAt(h.Scale.Target, sim.SystemOscar, degreedist.Constant(27), func(cfg *sim.Config) {
			cfg.Oscar.Oracle = oracle
		})
		if err != nil {
			return err
		}
		m := s.Measure()
		name := "sampled"
		if oracle {
			name = "oracle"
		}
		tab.AddRow(name, m.AvgSearchCost, m.Search.P90, m.DegreeVolume, m.AvgLevels)
	}
	return h.emit("ablation-oracle", tab)
}
