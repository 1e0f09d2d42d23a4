// Package bench is the paper's evaluation harness behind cmd/oscar-bench:
// one function per paper figure, table or ablation, each producing the rows
// behind the published plot. `make paper` commits its quick-scale output as
// BENCH_paper.txt.
package bench

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/metrics"
	"github.com/oscar-overlay/oscar/internal/sim"
)

// Scale fixes the experiment sizes. The paper grows to 10000 peers; the
// quick scale preserves every qualitative shape at laptop-iteration speed.
type Scale struct {
	// Target is the final network size.
	Target int
	// GrowthCheckpoints are the sizes measured in growth curves (fig1c).
	GrowthCheckpoints []int
	// ChurnSizes are the sizes at which churned networks are built (fig2).
	ChurnSizes []int
	// Queries per measurement (0 = network size, the paper's N).
	Queries int
}

// PaperScale is the paper's setup: 10000 peers.
func PaperScale() Scale {
	return Scale{
		Target:            10000,
		GrowthCheckpoints: seq(1000, 10000, 1000),
		ChurnSizes:        seq(2000, 10000, 2000),
	}
}

// QuickScale preserves the shapes at 3000 peers.
func QuickScale() Scale {
	return Scale{
		Target:            3000,
		GrowthCheckpoints: seq(500, 3000, 500),
		ChurnSizes:        []int{1000, 2000, 3000},
	}
}

func seq(from, to, step int) []int {
	var out []int
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

// AllExperiments lists the experiment ids in presentation order.
var AllExperiments = []string{
	"fig1a", "fig1b", "fig1c", "fig2a", "fig2b",
	"volume", "homog",
	"ablation-p2c", "ablation-samples", "ablation-oracle",
	"ablation-routing", "access-skew",
}

// Harness runs experiments and renders their tables.
type Harness struct {
	Out   io.Writer
	Scale Scale
	Seed  int64
	// CSVWriter, when set, receives each experiment's table for export.
	CSVWriter func(name string, write func(f *os.File) error) error

	verbose bool
}

// New creates a harness writing tables to out.
func New(out io.Writer, scale Scale, seed int64, verbose bool) *Harness {
	return &Harness{Out: out, Scale: scale, Seed: seed, verbose: verbose}
}

func (h *Harness) logf(format string, args ...interface{}) {
	if h.verbose {
		log.Printf(format, args...)
	}
}

func (h *Harness) section(title, expectation string) {
	fmt.Fprintf(h.Out, "\n## %s\n", title)
	if expectation != "" {
		fmt.Fprintf(h.Out, "# paper: %s\n", expectation)
	}
}

func (h *Harness) emit(name string, tab *metrics.Table) error {
	if _, err := tab.WriteTo(h.Out); err != nil {
		return err
	}
	if h.CSVWriter != nil {
		return h.CSVWriter(name, func(f *os.File) error { return tab.WriteCSV(f) })
	}
	return nil
}

// Run executes one experiment by id.
func (h *Harness) Run(id string) error {
	switch id {
	case "fig1a":
		return h.Fig1a()
	case "fig1b":
		return h.Fig1b()
	case "fig1c":
		return h.Fig1c()
	case "fig2a":
		return h.Fig2a()
	case "fig2b":
		return h.Fig2b()
	case "volume":
		return h.Volume()
	case "homog":
		return h.Homog()
	case "ablation-p2c":
		return h.AblationP2C()
	case "ablation-samples":
		return h.AblationSamples()
	case "ablation-oracle":
		return h.AblationOracle()
	case "ablation-routing":
		return h.AblationRouting()
	case "access-skew":
		return h.AccessSkew()
	default:
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
}

// capDistributions returns the paper's three degree-cap distributions.
func capDistributions() []degreedist.Distribution {
	return []degreedist.Distribution{
		degreedist.Constant(27),
		degreedist.PaperRealistic(),
		degreedist.PaperStepped(),
	}
}

// growthRun builds one network along the growth checkpoints and returns the
// per-checkpoint measurements.
func (h *Harness) growthRun(system sim.System, caps degreedist.Distribution, mutate func(*sim.Config)) ([]sim.Measurement, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = h.Seed
	cfg.TargetSize = h.Scale.Target
	cfg.Checkpoints = h.Scale.GrowthCheckpoints
	cfg.Keys = keydist.GnutellaLike()
	cfg.Degrees = caps
	cfg.System = system
	cfg.QueriesPerMeasure = h.Scale.Queries
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	return res.Checkpoints, nil
}

// buildAt grows a fresh network to exactly size and rewires it once.
func (h *Harness) buildAt(size int, system sim.System, caps degreedist.Distribution, mutate func(*sim.Config)) (*sim.Sim, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = h.Seed
	cfg.TargetSize = size
	cfg.Checkpoints = []int{size}
	cfg.Keys = keydist.GnutellaLike()
	cfg.Degrees = caps
	cfg.System = system
	cfg.QueriesPerMeasure = h.Scale.Queries
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	s.GrowTo(size)
	s.RewireAll()
	return s, nil
}
