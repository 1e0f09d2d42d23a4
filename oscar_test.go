package oscar

import "testing"

// buildSmall builds a small overlay once per test (sizes chosen to keep the
// whole suite fast).
func buildSmall(t *testing.T, cfg Config) *Overlay {
	t.Helper()
	if cfg.Size == 0 {
		cfg.Size = 400
	}
	ov, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return ov
}

func TestBuildDefaults(t *testing.T) {
	ov := buildSmall(t, Config{})
	if ov.Size() != 400 {
		t.Errorf("Size = %d", ov.Size())
	}
	if len(ov.Nodes()) != 400 {
		t.Errorf("Nodes = %d", len(ov.Nodes()))
	}
}

func TestBuildRejectsBadAlgorithm(t *testing.T) {
	if _, err := Build(Config{Algorithm: Algorithm(99)}); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestLookupFindsOwner(t *testing.T) {
	ov := buildSmall(t, Config{})
	for i := 0; i < 200; i++ {
		key := KeyFromFloat(float64(i) / 200)
		route := ov.Lookup(key)
		if !route.Found {
			t.Fatalf("lookup %v failed", key)
		}
		owner := ov.Info(route.Owner)
		pred := ov.Info(owner.Predecessor)
		if !key.BetweenIncl(pred.Key, owner.Key) {
			t.Fatalf("wrong owner for %v", key)
		}
	}
}

func TestLookupFromSpecificPeer(t *testing.T) {
	ov := buildSmall(t, Config{})
	from := ov.Nodes()[0]
	route := ov.LookupFrom(from, KeyFromFloat(0.5))
	if !route.Found {
		t.Fatal("lookup failed")
	}
	if route.Path[0] != from {
		t.Error("path must start at the source")
	}
}

func TestCrashAndBacktrackRouting(t *testing.T) {
	ov := buildSmall(t, Config{Size: 500})
	killed := ov.Crash(0.33)
	if killed != 165 {
		t.Fatalf("killed %d", killed)
	}
	if err := ov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		route := ov.Lookup(KeyFromFloat(float64(i) / 200))
		if !route.Found {
			t.Fatal("lookup failed after churn")
		}
	}
	m := ov.Measure()
	if m.Size != 335 {
		t.Errorf("size after churn = %d", m.Size)
	}
	if m.AvgProbes == 0 {
		t.Error("no probes under churn — stale link model inactive")
	}
}

func TestMeasureHealthy(t *testing.T) {
	ov := buildSmall(t, Config{})
	m := ov.Measure()
	if m.Failed != 0 || m.AvgSearchCost <= 0 {
		t.Errorf("measurement: %+v", m)
	}
	if m.DegreeVolume <= 0.5 {
		t.Errorf("degree volume %.2f", m.DegreeVolume)
	}
}

func TestAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmOscar, AlgorithmMercury, AlgorithmKleinberg} {
		ov := buildSmall(t, Config{Size: 300, Algorithm: alg})
		m := ov.Measure()
		if m.Failed != 0 {
			t.Errorf("algorithm %d: %d failures", alg, m.Failed)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := buildSmall(t, Config{Seed: 7}).Measure()
	b := buildSmall(t, Config{Seed: 7}).Measure()
	if a.AvgSearchCost != b.AvgSearchCost {
		t.Error("same seed, different overlays")
	}
}

func TestInfo(t *testing.T) {
	ov := buildSmall(t, Config{})
	id := ov.Nodes()[10]
	info := ov.Info(id)
	if info.ID != id || !info.Alive {
		t.Errorf("info: %+v", info)
	}
	if info.MaxIn != 27 || info.MaxOut != 27 {
		t.Errorf("caps: %+v", info)
	}
	if info.Successor == info.ID && ov.Size() > 1 {
		t.Error("successor must differ")
	}
}

func TestDistributionConstructors(t *testing.T) {
	if UniformKeys().Name() != "uniform" {
		t.Error("UniformKeys")
	}
	if GnutellaKeys().Name() != "gnutella" {
		t.Error("GnutellaKeys")
	}
	if _, err := ZipfKeys(16, 1.0); err != nil {
		t.Error(err)
	}
	if ConstantDegrees(27).Mean() != 27 {
		t.Error("ConstantDegrees")
	}
	if SteppedDegrees().Mean() != 27 {
		t.Error("SteppedDegrees")
	}
	if m := RealisticDegrees().Mean(); m < 27-1e-9 || m > 27+1e-9 {
		t.Errorf("RealisticDegrees mean = %v", m)
	}
}
