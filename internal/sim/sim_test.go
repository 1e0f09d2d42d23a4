package sim

import (
	"math"
	"testing"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/keydist"
)

// smallConfig keeps integration tests fast while exercising the full path.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetSize = 600
	cfg.Checkpoints = []int{300, 600}
	cfg.QueriesPerMeasure = 400
	return cfg
}

func TestNewValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.TargetSize = 1
	if _, err := New(cfg); err == nil {
		t.Error("tiny TargetSize must be rejected")
	}
	cfg = smallConfig()
	cfg.Keys = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil key distribution must be rejected")
	}
	cfg = smallConfig()
	cfg.Degrees = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil degree distribution must be rejected")
	}
	cfg = smallConfig()
	cfg.Checkpoints = []int{999999}
	if _, err := New(cfg); err == nil {
		t.Error("checkpoint beyond target must be rejected")
	}
}

func TestRunOscarEndToEnd(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 2 {
		t.Fatalf("got %d checkpoints", len(res.Checkpoints))
	}
	for _, m := range res.Checkpoints {
		if m.Failed != 0 {
			t.Errorf("size %d: %d failed lookups in a fault-free network", m.Size, m.Failed)
		}
		if m.AvgSearchCost <= 0 || m.AvgSearchCost > 20 {
			t.Errorf("size %d: implausible search cost %.2f", m.Size, m.AvgSearchCost)
		}
		if m.DegreeVolume < 0.5 || m.DegreeVolume > 1 {
			t.Errorf("size %d: degree volume %.2f out of range", m.Size, m.DegreeVolume)
		}
		if len(m.RelativeLoads) != m.Size {
			t.Errorf("size %d: %d relative loads", m.Size, len(m.RelativeLoads))
		}
	}
	// Cost grows (roughly) with size.
	if res.Checkpoints[1].AvgSearchCost < res.Checkpoints[0].AvgSearchCost-0.5 {
		t.Errorf("cost shrank with size: %.2f -> %.2f",
			res.Checkpoints[0].AvgSearchCost, res.Checkpoints[1].AvgSearchCost)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Measurement {
		cfg := smallConfig()
		cfg.TargetSize = 300
		cfg.Checkpoints = []int{300}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Checkpoints[0]
	}
	a, b := run(), run()
	if a.AvgSearchCost != b.AvgSearchCost || a.DegreeVolume != b.DegreeVolume {
		t.Errorf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestSeedChangesResults(t *testing.T) {
	run := func(seed int64) float64 {
		cfg := smallConfig()
		cfg.Seed = seed
		cfg.TargetSize = 300
		cfg.Checkpoints = []int{300}
		s, _ := New(cfg)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Checkpoints[0].AvgSearchCost
	}
	if run(1) == run(2) {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestMercurySystem(t *testing.T) {
	cfg := smallConfig()
	cfg.System = SystemMercury
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	final := res.Checkpoints[len(res.Checkpoints)-1]
	if final.Failed != 0 {
		t.Errorf("mercury: %d failed lookups", final.Failed)
	}
	if final.DegreeVolume <= 0.3 || final.DegreeVolume >= 0.9 {
		t.Errorf("mercury degree volume %.2f outside its regime", final.DegreeVolume)
	}
}

func TestKleinbergSystem(t *testing.T) {
	cfg := smallConfig()
	cfg.System = SystemKleinberg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	final := res.Checkpoints[len(res.Checkpoints)-1]
	if final.Failed != 0 {
		t.Errorf("kleinberg: %d failed lookups", final.Failed)
	}
	if final.AvgSearchCost <= 0 {
		t.Error("kleinberg: no cost measured")
	}
}

func TestOscarBeatsOrMatchesMercuryOnSkewedKeys(t *testing.T) {
	avgCost := func(system System) (float64, float64) {
		cfg := smallConfig()
		cfg.TargetSize = 500
		cfg.Checkpoints = []int{500}
		cfg.System = system
		cfg.Keys = keydist.GnutellaLike()
		s, _ := New(cfg)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Checkpoints[0].AvgSearchCost, res.Checkpoints[0].DegreeVolume
	}
	oCost, oVol := avgCost(SystemOscar)
	mCost, mVol := avgCost(SystemMercury)
	if oCost > mCost {
		t.Errorf("Oscar cost %.2f worse than Mercury %.2f on skewed keys", oCost, mCost)
	}
	if oVol <= mVol {
		t.Errorf("Oscar volume %.2f not above Mercury %.2f", oVol, mVol)
	}
}

func TestChurnMeasurement(t *testing.T) {
	cfg := smallConfig()
	cfg.TargetSize = 500
	cfg.Checkpoints = []int{500}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	healthy := s.Measure()
	victims := s.Churn(0.33)
	if len(victims) != 165 {
		t.Fatalf("killed %d, want 165", len(victims))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	faulty := s.Measure()
	if faulty.Failed != 0 {
		t.Errorf("%d failed lookups under churn", faulty.Failed)
	}
	if faulty.AvgSearchCost <= healthy.AvgSearchCost {
		t.Errorf("churn did not raise cost: %.2f vs %.2f", faulty.AvgSearchCost, healthy.AvgSearchCost)
	}
	if faulty.AvgProbes <= 0 {
		t.Error("no dead-link probes recorded under churn")
	}
}

func TestHeterogeneousDegrees(t *testing.T) {
	for _, dist := range []degreedist.Distribution{
		degreedist.Constant(27),
		degreedist.PaperStepped(),
		degreedist.PaperRealistic(),
	} {
		cfg := smallConfig()
		cfg.TargetSize = 400
		cfg.Checkpoints = []int{400}
		cfg.Degrees = dist
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		m := res.Checkpoints[0]
		if m.Failed != 0 {
			t.Errorf("%s: %d failures", dist.Name(), m.Failed)
		}
		if m.AvgSearchCost > 15 {
			t.Errorf("%s: cost %.2f implausible", dist.Name(), m.AvgSearchCost)
		}
		// Caps respected even under heterogeneity.
		for _, id := range s.Net().AliveIDs() {
			n := s.Net().Node(id)
			if n.InDeg() > n.MaxIn || len(n.Out) > n.MaxOut {
				t.Errorf("%s: node %d violates its caps", dist.Name(), id)
			}
		}
	}
}

func TestRelativeLoadsSorted(t *testing.T) {
	cfg := smallConfig()
	cfg.TargetSize = 300
	cfg.Checkpoints = []int{300}
	s, _ := New(cfg)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loads := res.Checkpoints[0].RelativeLoads
	for i := 1; i < len(loads); i++ {
		if loads[i] < loads[i-1] {
			t.Fatal("relative loads must be sorted ascending")
		}
	}
	if loads[len(loads)-1] > 1+1e-9 {
		t.Error("relative load above 1 — in-cap violated")
	}
	if math.IsNaN(loads[0]) {
		t.Error("NaN load")
	}
}
