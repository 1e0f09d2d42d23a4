package oscar

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

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

func TestPutGetRoundTrip(t *testing.T) {
	ov := buildSmall(t, Config{})
	for i := 0; i < 100; i++ {
		key := KeyFromFloat(float64(i) / 100)
		want := []byte(fmt.Sprintf("value-%d", i))
		if _, err := ov.Put(key, want); err != nil {
			t.Fatal(err)
		}
		got, found, cost, err := ov.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !found || !bytes.Equal(got, want) {
			t.Fatalf("get %v = %q, %v", key, got, found)
		}
		if cost < 0 {
			t.Error("negative cost")
		}
	}
}

func TestGetMissing(t *testing.T) {
	ov := buildSmall(t, Config{})
	_, found, _, err := ov.Get(KeyFromFloat(0.123))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("missing key reported found")
	}
}

func TestPutReplace(t *testing.T) {
	ov := buildSmall(t, Config{})
	key := KeyFromFloat(0.7)
	if res, err := ov.Put(key, []byte("a")); err != nil || res.Replaced {
		t.Fatalf("first put: %+v, %v", res, err)
	}
	res, err := ov.Put(key, []byte("b"))
	if err != nil || !res.Replaced {
		t.Fatalf("second put: %+v, %v", res, err)
	}
	got, _, _, _ := ov.Get(key)
	if string(got) != "b" {
		t.Errorf("value = %q", got)
	}
}

func TestRangeQuery(t *testing.T) {
	ov := buildSmall(t, Config{})
	// Store 50 items at known fractions.
	for i := 0; i < 50; i++ {
		if _, err := ov.Put(KeyFromFloat(float64(i)/50), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Query [0.2, 0.4): fractions 10/50 .. 19/50.
	res, err := ov.RangeQuery(KeyFromFloat(0.2), KeyFromFloat(0.4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 10 {
		t.Fatalf("range returned %d items, want 10", len(res.Items))
	}
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i-1].Key >= res.Items[i].Key {
			t.Fatal("range results out of order")
		}
	}
	if res.PeersScanned < 1 || res.Cost < res.PeersScanned-1 {
		t.Errorf("implausible scan stats: %+v", res)
	}
}

func TestRangeQueryLimit(t *testing.T) {
	ov := buildSmall(t, Config{})
	for i := 0; i < 50; i++ {
		if _, err := ov.Put(KeyFromFloat(float64(i)/50), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ov.RangeQuery(KeyFromFloat(0), KeyFromFloat(1.0-1e-9), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 7 {
		t.Errorf("limit ignored: %d items", len(res.Items))
	}
}

func TestRangeQueryWrapping(t *testing.T) {
	ov := buildSmall(t, Config{})
	for _, f := range []float64{0.95, 0.99, 0.01, 0.05, 0.5} {
		if _, err := ov.Put(KeyFromFloat(f), []byte(fmt.Sprint(f))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ov.RangeQuery(KeyFromFloat(0.9), KeyFromFloat(0.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 4 { // all but 0.5
		t.Errorf("wrapping range returned %d items, want 4", len(res.Items))
	}
}

// TestRangeQueryFullCircle: start == end is the full circle, which a range
// query refuses like a Scan does. Split in two halves, the same read
// returns every item exactly once.
func TestRangeQueryFullCircle(t *testing.T) {
	ov := buildSmall(t, Config{Size: 50})
	const items = 20
	for i := 0; i < items; i++ {
		if _, err := ov.Put(KeyFromFloat(float64(i)/items+0.01), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	k := KeyFromFloat(0.3)
	res, err := ov.RangeQuery(k, k, 0)
	if !errors.Is(err, ErrBadRange) {
		t.Fatalf("full-circle range query = %d items, %v; want ErrBadRange", len(res.Items), err)
	}
	mid := KeyFromFloat(0.8)
	seen := make(map[Key]bool)
	for _, rg := range []Range{{Start: k, End: mid}, {Start: mid, End: k}} {
		half, err := ov.RangeQuery(rg.Start, rg.End, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range half.Items {
			if seen[it.Key] {
				t.Fatalf("key %v returned twice", it.Key)
			}
			seen[it.Key] = true
		}
	}
	if len(seen) != items {
		t.Fatalf("two halves returned %d items, want %d", len(seen), items)
	}
}

func TestGrowMigratesItems(t *testing.T) {
	ov := buildSmall(t, Config{Size: 200})
	var keys []Key
	for i := 0; i < 300; i++ {
		k := KeyFromFloat(float64(i) / 300)
		keys = append(keys, k)
		if _, err := ov.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ov.Grow(400) // joins must take over their arcs' items
	ov.RewireAll()
	for i, k := range keys {
		got, found, _, err := ov.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || got[0] != byte(i) {
			t.Fatalf("item %d lost after growth", i)
		}
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
