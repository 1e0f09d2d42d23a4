// Package metrics collects and formats the statistics reported by the
// experiments: summaries (mean/percentiles), an integer pmf, and
// aligned-table / CSV writers for the harness output.
package metrics

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentileSorted(sorted, 0.50)
	s.P90 = percentileSorted(sorted, 0.90)
	s.P99 = percentileSorted(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. It copies and sorts xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanInts is Mean over integers.
func MeanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// IntPMF counts integer-valued samples and reports their empirical pmf —
// used for the Fig 1a degree-distribution plot, where bins are exact degrees.
type IntPMF struct {
	Counts map[int]int
	total  int
}

// NewIntPMF creates an empty integer pmf accumulator.
func NewIntPMF() *IntPMF { return &IntPMF{Counts: make(map[int]int)} }

// Add records one sample.
func (p *IntPMF) Add(v int) {
	p.Counts[v]++
	p.total++
}

// Prob returns the empirical probability of v.
func (p *IntPMF) Prob(v int) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.Counts[v]) / float64(p.total)
}

// Total returns the number of recorded samples.
func (p *IntPMF) Total() int { return p.total }
