// Package degreedist provides the node-degree-cap distributions of the
// paper's heterogeneity experiments.
//
// Every peer p announces ρmax_in(p) and ρmax_out(p): the most incoming and
// outgoing long-range links it is willing to carry given its bandwidth
// budget. The paper evaluates three distributions, all with mean 27:
//
//   - constant: every peer allows exactly 27 links;
//   - stepped: caps drawn uniformly from {19, 23, 27, 39};
//   - "realistic": a synthetic spiky pdf (Fig 1a) emulating measured
//     file-sharing overlays [Stutzbach et al. 2005], where default client
//     configurations produce mass spikes on a heavy-tailed envelope.
package degreedist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Distribution yields per-peer degree caps.
type Distribution interface {
	// Name identifies the distribution in reports and CLI flags.
	Name() string
	// Sample draws one degree cap (always >= 1).
	Sample(r *rand.Rand) int
	// Mean returns the exact expected cap.
	Mean() float64
}

// Constant gives every peer the same cap.
type Constant int

// Name implements Distribution.
func (c Constant) Name() string { return fmt.Sprintf("constant(%d)", int(c)) }

// Sample implements Distribution.
func (c Constant) Sample(*rand.Rand) int { return int(c) }

// Mean implements Distribution.
func (c Constant) Mean() float64 { return float64(c) }

// Stepped draws uniformly from a fixed set of caps.
type Stepped []int

// PaperStepped is the paper's stepped distribution: uniform over
// {19, 23, 27, 39}, mean 27.
func PaperStepped() Stepped { return Stepped{19, 23, 27, 39} }

// Name implements Distribution.
func (s Stepped) Name() string { return fmt.Sprintf("stepped%v", []int(s)) }

// Sample implements Distribution.
func (s Stepped) Sample(r *rand.Rand) int { return s[r.Intn(len(s))] }

// Mean implements Distribution.
func (s Stepped) Mean() float64 {
	var sum int
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

// PMF is a discrete probability mass function over degrees 1..len(P).
// P[d-1] is the probability of degree d.
type PMF struct {
	name string
	p    []float64 // pmf, index 0 => degree 1
	cum  []float64 // cumulative
	mean float64
}

// NewPMF builds a distribution from unnormalised weights (index 0 is degree 1).
func NewPMF(name string, weights []float64) (*PMF, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("degreedist: %q needs at least one weight", name)
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("degreedist: %q has negative weight at degree %d", name, i+1)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("degreedist: %q has zero total mass", name)
	}
	d := &PMF{name: name, p: make([]float64, len(weights)), cum: make([]float64, len(weights))}
	cum := 0.0
	for i, w := range weights {
		d.p[i] = w / total
		cum += d.p[i]
		d.cum[i] = cum
		d.mean += float64(i+1) * d.p[i]
	}
	d.cum[len(d.cum)-1] = 1
	return d, nil
}

// Name implements Distribution.
func (d *PMF) Name() string { return d.name }

// Sample implements Distribution.
func (d *PMF) Sample(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(d.cum, u) + 1
}

// Mean implements Distribution.
func (d *PMF) Mean() float64 { return d.mean }

// Prob returns the probability of degree deg (0 outside the support).
func (d *PMF) Prob(deg int) float64 {
	if deg < 1 || deg > len(d.p) {
		return 0
	}
	return d.p[deg-1]
}

// MaxDegree returns the largest degree in the support.
func (d *PMF) MaxDegree() int { return len(d.p) }

// RealisticSpiky builds the synthetic spiky distribution of Figure 1(a):
// a power-law envelope p(d) ∝ d^-alpha over degrees 1..maxDeg with
// probability-mass spikes at common client-default cap values, mixed so the
// overall mean is exactly targetMean. It models measured unstructured
// overlays, where most peers run defaults (spikes) on a heavy tail.
//
// The envelope/spike mixing weight is solved at construction time, so the
// mean is exact, not tuned.
func RealisticSpiky(targetMean float64, maxDeg int) (*PMF, error) {
	if maxDeg < 2 {
		return nil, fmt.Errorf("degreedist: maxDeg %d too small", maxDeg)
	}
	const alpha = 1.5
	envelope := make([]float64, maxDeg)
	var envTotal, envMean float64
	for d := 1; d <= maxDeg; d++ {
		w := math.Pow(float64(d), -alpha)
		envelope[d-1] = w
		envTotal += w
		envMean += float64(d) * w
	}
	envMean /= envTotal

	// Spikes at typical default configurations (cf. Fig 1a's visible bumps).
	// The spike mean sits just above the target so the envelope weight stays
	// small: most peers run defaults, and the probability of a tiny cap
	// (≲5 links) stays around 15% — matching both the published pdf range
	// (1e-5..1e-1) and the paper's observation that the heterogeneous cases
	// behave like the constant one.
	spikes := map[int]float64{20: 0.32, 27: 0.36, 32: 0.22, 50: 0.08, 100: 0.02}
	var spikeTotal, spikeMean float64
	for d, w := range spikes {
		if d > maxDeg {
			return nil, fmt.Errorf("degreedist: spike degree %d exceeds maxDeg %d", d, maxDeg)
		}
		spikeTotal += w
		spikeMean += float64(d) * w
	}
	spikeMean /= spikeTotal

	if targetMean <= envMean || targetMean >= spikeMean {
		return nil, fmt.Errorf("degreedist: target mean %.3g outside achievable range (%.3g, %.3g)",
			targetMean, envMean, spikeMean)
	}
	s := (targetMean - envMean) / (spikeMean - envMean) // spike mixture weight

	weights := make([]float64, maxDeg)
	for i, w := range envelope {
		weights[i] = (1 - s) * w / envTotal
	}
	for d, w := range spikes {
		weights[d-1] += s * w / spikeTotal
	}
	return NewPMF(fmt.Sprintf("realistic(mean=%g)", targetMean), weights)
}

// PaperRealistic is RealisticSpiky with the paper's parameters: mean 27,
// support 1..256.
func PaperRealistic() *PMF {
	d, err := RealisticSpiky(27, 256)
	if err != nil {
		panic("degreedist: PaperRealistic construction: " + err.Error()) // static spec, cannot fail
	}
	return d
}
