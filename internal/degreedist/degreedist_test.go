package degreedist

import (
	"math"
	"math/rand"
	"testing"
)

func testRand() *rand.Rand { return rand.New(rand.NewSource(7)) }

func sampleMean(d Distribution, n int) float64 {
	r := testRand()
	var sum int
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return float64(sum) / float64(n)
}

func TestConstant(t *testing.T) {
	c := Constant(27)
	if c.Mean() != 27 {
		t.Errorf("Mean = %g", c.Mean())
	}
	r := testRand()
	for i := 0; i < 100; i++ {
		if c.Sample(r) != 27 {
			t.Fatal("constant must always return its value")
		}
	}
}

func TestPaperStepped(t *testing.T) {
	s := PaperStepped()
	if got := s.Mean(); got != 27 {
		t.Errorf("stepped mean = %g, want 27", got)
	}
	allowed := map[int]bool{19: true, 23: true, 27: true, 39: true}
	r := testRand()
	seen := map[int]int{}
	for i := 0; i < 4000; i++ {
		v := s.Sample(r)
		if !allowed[v] {
			t.Fatalf("sampled %d outside {19,23,27,39}", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c < 800 || c > 1200 { // each should be ≈1000
			t.Errorf("cap %d drawn %d/4000 times; not uniform", v, c)
		}
	}
	if got := sampleMean(s, 20000); math.Abs(got-27) > 0.3 {
		t.Errorf("empirical stepped mean = %g", got)
	}
}

func TestPaperRealisticMeanIs27(t *testing.T) {
	d := PaperRealistic()
	if got := d.Mean(); math.Abs(got-27) > 1e-9 {
		t.Errorf("analytic mean = %.12f, want exactly 27", got)
	}
	if got := sampleMean(d, 100000); math.Abs(got-27) > 0.5 {
		t.Errorf("empirical mean = %g, want ≈27", got)
	}
}

func TestPaperRealisticShape(t *testing.T) {
	// Fig 1a: visible probability spikes at default-configuration values on
	// a heavy-tailed envelope, support reaching past 10^2.
	d := PaperRealistic()
	if d.MaxDegree() < 200 {
		t.Fatalf("support too small: %d", d.MaxDegree())
	}
	for _, spike := range []int{20, 27, 32, 50, 100} {
		p := d.Prob(spike)
		left, right := d.Prob(spike-1), d.Prob(spike+1)
		if p <= 2*left || p <= 2*right {
			t.Errorf("degree %d should be a spike: p=%.2g neighbours (%.2g, %.2g)", spike, p, left, right)
		}
	}
	// Envelope decays: non-spike probabilities fall with degree.
	if d.Prob(3) <= d.Prob(150) {
		t.Error("power-law envelope should decay with degree")
	}
	// pdf range matches the published axes (1e-5 .. 1e-1).
	if d.Prob(27) > 0.5 || d.Prob(27) < 1e-3 {
		t.Errorf("main spike mass %.2g implausible vs Fig 1a", d.Prob(27))
	}
}

func TestPMFSamplesInSupport(t *testing.T) {
	d := PaperRealistic()
	r := testRand()
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 1 || v > d.MaxDegree() {
			t.Fatalf("sample %d outside support", v)
		}
	}
}

func TestPMFProbSumsToOne(t *testing.T) {
	d := PaperRealistic()
	var sum float64
	for deg := 1; deg <= d.MaxDegree(); deg++ {
		sum += d.Prob(deg)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pmf sums to %.12f", sum)
	}
	if d.Prob(0) != 0 || d.Prob(d.MaxDegree()+1) != 0 {
		t.Error("out-of-support degrees must have probability 0")
	}
}

func TestPMFSampleMatchesProb(t *testing.T) {
	d := PaperRealistic()
	r := testRand()
	const n = 200000
	counts := make([]int, d.MaxDegree()+1)
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	for _, deg := range []int{1, 20, 27, 50} {
		emp := float64(counts[deg]) / n
		ana := d.Prob(deg)
		if math.Abs(emp-ana) > 0.005+0.2*ana {
			t.Errorf("degree %d: empirical %.4f vs analytic %.4f", deg, emp, ana)
		}
	}
}

func TestNewPMFValidation(t *testing.T) {
	if _, err := NewPMF("empty", nil); err == nil {
		t.Error("empty weights must be rejected")
	}
	if _, err := NewPMF("neg", []float64{1, -1}); err == nil {
		t.Error("negative weight must be rejected")
	}
	if _, err := NewPMF("zero", []float64{0, 0}); err == nil {
		t.Error("zero mass must be rejected")
	}
}

func TestRealisticSpikyValidation(t *testing.T) {
	if _, err := RealisticSpiky(27, 1); err == nil {
		t.Error("tiny support must be rejected")
	}
	if _, err := RealisticSpiky(27, 64); err == nil {
		t.Error("support below the largest spike must be rejected")
	}
	if _, err := RealisticSpiky(5, 256); err == nil {
		t.Error("unreachable (too small) mean must be rejected")
	}
	if _, err := RealisticSpiky(100, 256); err == nil {
		t.Error("unreachable (too large) mean must be rejected")
	}
}

func TestRealisticSpikyCustomMean(t *testing.T) {
	d, err := RealisticSpiky(20, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Mean(); math.Abs(got-20) > 1e-9 {
		t.Errorf("mean = %g, want 20", got)
	}
}
