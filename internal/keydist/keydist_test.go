package keydist

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

func testRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

// checkCDF verifies the basic CDF contract: bounds, monotonicity.
func checkCDF(t *testing.T, d Distribution) {
	t.Helper()
	if got := d.CDF(0); got != 0 {
		t.Errorf("%s: CDF(0) = %g, want 0", d.Name(), got)
	}
	if got := d.CDF(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("%s: CDF(1) = %g, want 1", d.Name(), got)
	}
	prev := 0.0
	for x := 0.0; x <= 1.0; x += 1.0 / 512 {
		c := d.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("%s: CDF not monotone at %g: %g < %g", d.Name(), x, c, prev)
		}
		prev = c
	}
}

// checkSamplesMatchCDF draws samples and compares the empirical CDF with the
// analytic one at a few probe points (a crude Kolmogorov–Smirnov check).
func checkSamplesMatchCDF(t *testing.T, d Distribution, n int, tol float64) {
	t.Helper()
	r := testRand()
	fracs := make([]float64, n)
	for i := range fracs {
		fracs[i] = d.Sample(r).Float()
	}
	sort.Float64s(fracs)
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		emp := float64(sort.SearchFloat64s(fracs, x)) / float64(n)
		ana := d.CDF(x)
		if math.Abs(emp-ana) > tol {
			t.Errorf("%s: at x=%g empirical CDF %.4f vs analytic %.4f", d.Name(), x, emp, ana)
		}
	}
}

func TestUniform(t *testing.T) {
	checkCDF(t, Uniform{})
	checkSamplesMatchCDF(t, Uniform{}, 20000, 0.02)
}

func TestGnutellaLike(t *testing.T) {
	d := GnutellaLike()
	checkCDF(t, d)
	checkSamplesMatchCDF(t, d, 20000, 0.02)
}

func TestGnutellaLikeIsSpiky(t *testing.T) {
	// The defining property: density varies by orders of magnitude. Compare
	// mass in a thin window around the needle at 0.91 with a same-width
	// window in the background.
	d := GnutellaLike()
	const w = 0.002
	needle := d.CDF(0.91+w) - d.CDF(0.91-w)
	background := d.CDF(0.25+w) - d.CDF(0.25-w)
	if needle < 20*background {
		t.Errorf("needle mass %.5f not ≫ background mass %.5f; distribution not spiky enough", needle, background)
	}
}

func TestMixtureValidation(t *testing.T) {
	if _, err := NewMixture("empty", nil); err == nil {
		t.Error("empty mixture must be rejected")
	}
	if _, err := NewMixture("neg", []Component{{Weight: -1, Uniform: &UniformSpec{0, 1}}}); err == nil {
		t.Error("negative weight must be rejected")
	}
	if _, err := NewMixture("both", []Component{{Weight: 1, Uniform: &UniformSpec{0, 1}, Gauss: &GaussSpec{0.5, 0.1}}}); err == nil {
		t.Error("component with two shapes must be rejected")
	}
	if _, err := NewMixture("none", []Component{{Weight: 1}}); err == nil {
		t.Error("component with no shape must be rejected")
	}
	if _, err := NewMixture("sigma", []Component{{Weight: 1, Gauss: &GaussSpec{0.5, 0}}}); err == nil {
		t.Error("zero sigma must be rejected")
	}
	if _, err := NewMixture("bounds", []Component{{Weight: 1, Uniform: &UniformSpec{0.5, 0.2}}}); err == nil {
		t.Error("inverted uniform bounds must be rejected")
	}
}

func TestZipf(t *testing.T) {
	z, err := NewZipf(32, 1.0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	checkCDF(t, z)
	checkSamplesMatchCDF(t, z, 20000, 0.02)
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1, 0); err == nil {
		t.Error("zero sites must be rejected")
	}
	if _, err := NewZipf(4, 0, 0); err == nil {
		t.Error("zero exponent must be rejected")
	}
	if _, err := NewZipf(4, 1, 0.9); err == nil {
		t.Error("oversized jitter must be rejected")
	}
}

func TestZipfFirstSiteDominates(t *testing.T) {
	z, err := NewZipf(16, 1.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := testRand()
	counts := make(map[keyspace.Key]int)
	for i := 0; i < 10000; i++ {
		counts[z.Sample(r)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 2000 { // rank-1 site should carry ≈ 1/H ≈ 29% of the mass
		t.Errorf("most popular site has only %d/10000 samples; Zipf skew missing", max)
	}
}

func TestEmpirical(t *testing.T) {
	r := testRand()
	src := GnutellaLike()
	keys := SampleN(src, r, 5000)
	e, err := NewEmpirical(keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCDF(t, e)
	checkSamplesMatchCDF(t, e, 20000, 0.03)
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil, 0); err == nil {
		t.Error("empty key set must be rejected")
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	for _, d := range []Distribution{Uniform{}, GnutellaLike()} {
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			k := Quantile(d, q)
			if got := d.CDF(k.Float()); math.Abs(got-q) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%g)) = %g", d.Name(), q, got)
			}
		}
	}
}

func TestQuantileExtremes(t *testing.T) {
	d := Uniform{}
	if Quantile(d, 0) != 0 {
		t.Error("Quantile(0) should be key 0")
	}
	if Quantile(d, 1) != keyspace.MaxKey {
		t.Error("Quantile(1) should be MaxKey")
	}
}

func TestSampleN(t *testing.T) {
	keys := SampleN(Uniform{}, testRand(), 17)
	if len(keys) != 17 {
		t.Fatalf("SampleN returned %d keys", len(keys))
	}
}

func TestWindowMassBelow(t *testing.T) {
	cases := []struct {
		lo, hi, x, want float64
	}{
		{0.4, 0.6, 0.5, 0.5},
		{0.4, 0.6, 0.4, 0},
		{0.4, 0.6, 0.7, 1},
		{-0.05, 0.05, 0.05, 0.5}, // wraps below zero: half the window is near 1
		{0.95, 1.05, 0.03, 0.3},  // wraps above one: [0,0.05) near 0, x cuts at 0.03
		{-0.05, 0.05, 1.0, 1},    // everything is below 1
		{0.95, 1.05, 1.0, 1},
	}
	for _, c := range cases {
		if got := windowMassBelow(c.lo, c.hi, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("windowMassBelow(%g,%g,%g) = %g, want %g", c.lo, c.hi, c.x, got, c.want)
		}
	}
}
