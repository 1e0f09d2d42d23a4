package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("unexpected summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std = %g", s.Std)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %g", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary should be zero, got %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.P50 != 7 || s.P99 != 7 {
		t.Errorf("single-sample summary %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := map[float64]float64{0: 10, 1: 40, 0.5: 25}
	for p, want := range cases {
		if got := Percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanHelpers(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean broken")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if MeanInts([]int{1, 2, 3}) != 2 {
		t.Error("MeanInts broken")
	}
	if MeanInts(nil) != 0 {
		t.Error("MeanInts(nil) should be 0")
	}
}

func TestIntPMF(t *testing.T) {
	p := NewIntPMF()
	for _, v := range []int{3, 3, 3, 7} {
		p.Add(v)
	}
	if got := p.Prob(3); got != 0.75 {
		t.Errorf("Prob(3) = %g", got)
	}
	if got := p.Prob(9); got != 0 {
		t.Errorf("Prob(9) = %g", got)
	}
	if p.Total() != 4 {
		t.Errorf("Total = %d", p.Total())
	}
}

func TestIntPMFEmpty(t *testing.T) {
	p := NewIntPMF()
	if p.Prob(1) != 0 || p.Total() != 0 {
		t.Error("empty pmf misbehaves")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("n", "cost")
	tab.AddRow(1000, 7.25)
	tab.AddRow(2000, 8.5)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header+rule+2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "n") || !strings.Contains(lines[0], "cost") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "1000") || !strings.Contains(lines[2], "7.25") {
		t.Errorf("row missing: %q", lines[2])
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x", 1)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\nx,1\n" {
		t.Errorf("csv = %q", got)
	}
}
