package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed client operation: when it completed, measured
// from the start of the window it ran in, and how long it took.
type sample struct {
	at, dur time.Duration
}

// percentile returns the q-quantile of sorted by nearest rank (the smallest
// value with at least q of the samples at or below it). Zero for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// supported reports whether n samples carry the q-quantile: at least ten of
// them must lie beyond it, or the tail reads as noise.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle ones for an
// even count). Zero for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max-min)/median of xs: how far apart the segments of one run
// (or the runs of one set) read. Zero when the median is zero.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return (s[len(s)-1] - s[0]) / m
}

// segmentOf maps a completion time onto one of n equal segments of a window.
func segmentOf(at, window time.Duration, n int) int {
	return min(max(int(int64(at)*int64(n)/int64(window)), 0), n-1)
}

// bySegment splits the durations of samples, in milliseconds, over the n
// equal segments of the window by completion time; each segment is sorted.
func bySegment(samples []sample, window time.Duration, n int) [][]float64 {
	segs := make([][]float64, n)
	for _, s := range samples {
		i := segmentOf(s.at, window, n)
		segs[i] = append(segs[i], msOf(s.dur))
	}
	for _, seg := range segs {
		sort.Float64s(seg)
	}
	return segs
}

// reading is one measured value: the median over the segments of a run,
// how many samples it rests on, and how far apart the segments read.
type reading struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Spread  float64 `json:"spread"`
}

// ofSegments folds one value per segment into a reading.
func ofSegments(unit string, perSegment []float64, samples int) reading {
	return reading{Value: median(perSegment), Unit: unit, Samples: samples, Spread: spread(perSegment)}
}

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usOf converts durations to microseconds.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// p50 is the median of unsorted xs by nearest rank.
func p50(xs []float64) float64 { return percentile(sortedCopy(xs), 0.50) }

// unionLength returns the total length covered by the intervals, each a
// [start, end) pair, clipped to [lo, hi). Overlaps count once: a parallel
// fan-out costs its slowest leg, not the sum.
func unionLength(intervals [][2]int64, lo, hi int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	end := lo
	for _, iv := range intervals {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}
