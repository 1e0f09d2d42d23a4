// Package keydist provides the key (peer identifier) distributions used by
// the experiments.
//
// Data-oriented overlays are order-preserving, so peer identifiers inherit
// whatever skew the application data has. The paper draws peer keys from the
// "Gnutella filename distribution", a proprietary 2005 trace; GnutellaLike
// is our synthetic stand-in: a heavy-tailed, multi-modal mixture whose
// narrow density spikes are exactly the feature that defeats
// uniform-resolution histogram estimation (Mercury) while leaving Oscar's
// median-based partitioning unaffected.
//
// All distributions are expressed over the unit interval [0,1) and mapped
// onto the identifier circle with keyspace.FromFloat. CDFs are exposed so
// tests and oracle tooling can compute exact quantiles.
package keydist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// Distribution is a probability distribution over the identifier circle.
type Distribution interface {
	// Name identifies the distribution in reports and CLI flags.
	Name() string
	// Sample draws one key.
	Sample(r *rand.Rand) keyspace.Key
	// CDF returns the probability mass lying in the fraction interval
	// [0, x) of the circle, for x in [0,1]. It is nondecreasing with
	// CDF(0)=0 and CDF(1)=1.
	CDF(x float64) float64
}

// Quantile inverts d's CDF by bisection: it returns the key k such that a
// fraction q of the mass lies clockwise-before k (counting from key 0).
func Quantile(d Distribution, q float64) keyspace.Key {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return keyspace.MaxKey
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if d.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return keyspace.FromFloat((lo + hi) / 2)
}

// SampleN draws n keys.
func SampleN(d Distribution, r *rand.Rand, n int) []keyspace.Key {
	out := make([]keyspace.Key, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// Uniform is the uniform distribution over the circle: the baseline that
// hash-based overlays (Chord, CAN) implicitly assume.
type Uniform struct{}

// Name implements Distribution.
func (Uniform) Name() string { return "uniform" }

// Sample implements Distribution.
func (Uniform) Sample(r *rand.Rand) keyspace.Key { return keyspace.Key(r.Uint64()) }

// CDF implements Distribution.
func (Uniform) CDF(x float64) float64 { return clamp01(x) }

// unitDist is one mixture component over [0,1).
type unitDist interface {
	sample(r *rand.Rand) float64
	cdf(x float64) float64
}

// uniformUnit is uniform over [a,b) ⊂ [0,1).
type uniformUnit struct{ a, b float64 }

func (u uniformUnit) sample(r *rand.Rand) float64 { return u.a + r.Float64()*(u.b-u.a) }
func (u uniformUnit) cdf(x float64) float64 {
	switch {
	case x <= u.a:
		return 0
	case x >= u.b:
		return 1
	default:
		return (x - u.a) / (u.b - u.a)
	}
}

// gaussUnit is a Gaussian truncated to [0,1). With the narrow sigmas used
// here the truncation loss is negligible but the CDF normalises it away
// regardless.
type gaussUnit struct{ mu, sigma float64 }

func stdNormCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

func (g gaussUnit) mass() float64 {
	return stdNormCDF((1-g.mu)/g.sigma) - stdNormCDF((0-g.mu)/g.sigma)
}

func (g gaussUnit) sample(r *rand.Rand) float64 {
	for {
		x := g.mu + r.NormFloat64()*g.sigma
		if x >= 0 && x < 1 {
			return x
		}
	}
}

func (g gaussUnit) cdf(x float64) float64 {
	x = clamp01(x)
	num := stdNormCDF((x-g.mu)/g.sigma) - stdNormCDF((0-g.mu)/g.sigma)
	return num / g.mass()
}

// Mixture is a weighted mixture of unit-interval components.
type Mixture struct {
	name    string
	weights []float64 // cumulative, last == 1
	comps   []unitDist
}

// Component describes one mixture part for NewMixture.
type Component struct {
	Weight float64
	// Exactly one of the following is used:
	Gauss   *GaussSpec
	Uniform *UniformSpec
}

// GaussSpec is a truncated Gaussian component.
type GaussSpec struct{ Mu, Sigma float64 }

// UniformSpec is a uniform component over [A,B).
type UniformSpec struct{ A, B float64 }

// NewMixture builds a mixture distribution. Weights are normalised; a
// component must specify exactly one shape.
func NewMixture(name string, comps []Component) (*Mixture, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("keydist: mixture %q needs at least one component", name)
	}
	var total float64
	for _, c := range comps {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("keydist: mixture %q has non-positive weight", name)
		}
		total += c.Weight
	}
	m := &Mixture{name: name}
	cum := 0.0
	for i, c := range comps {
		cum += c.Weight / total
		m.weights = append(m.weights, cum)
		switch {
		case c.Gauss != nil && c.Uniform == nil:
			if c.Gauss.Sigma <= 0 {
				return nil, fmt.Errorf("keydist: component %d of %q has sigma <= 0", i, name)
			}
			m.comps = append(m.comps, gaussUnit{c.Gauss.Mu, c.Gauss.Sigma})
		case c.Uniform != nil && c.Gauss == nil:
			if !(c.Uniform.A < c.Uniform.B) || c.Uniform.A < 0 || c.Uniform.B > 1 {
				return nil, fmt.Errorf("keydist: component %d of %q has invalid uniform bounds", i, name)
			}
			m.comps = append(m.comps, uniformUnit{c.Uniform.A, c.Uniform.B})
		default:
			return nil, fmt.Errorf("keydist: component %d of %q must set exactly one shape", i, name)
		}
	}
	m.weights[len(m.weights)-1] = 1 // kill accumulated rounding
	return m, nil
}

// Name implements Distribution.
func (m *Mixture) Name() string { return m.name }

// Sample implements Distribution.
func (m *Mixture) Sample(r *rand.Rand) keyspace.Key {
	u := r.Float64()
	i := sort.SearchFloat64s(m.weights, u)
	if i == len(m.comps) {
		i--
	}
	return keyspace.FromFloat(m.comps[i].sample(r))
}

// CDF implements Distribution.
func (m *Mixture) CDF(x float64) float64 {
	x = clamp01(x)
	var sum, prev float64
	for i, c := range m.comps {
		w := m.weights[i] - prev
		prev = m.weights[i]
		sum += w * c.cdf(x)
	}
	return sum
}

// GnutellaLike returns the synthetic stand-in for the paper's "Gnutella
// filename distribution": a 10% uniform background plus six Gaussian density
// spikes of widely varying width, down to needle-thin (sigma 4e-4). The
// needles are narrower than any practical uniform-resolution histogram
// bucket, which is the documented failure mode of Mercury's sampling and the
// regime Oscar's median estimation is designed for.
//
// Every call returns the same value, built once: callers draw every key
// through it, and a Mixture is read-only after construction, so it is safe
// for concurrent use.
func GnutellaLike() Distribution { return gnutellaLike }

var gnutellaLike = func() *Mixture {
	m, err := NewMixture("gnutella", []Component{
		{Weight: 0.10, Uniform: &UniformSpec{A: 0, B: 1}},
		{Weight: 0.22, Gauss: &GaussSpec{Mu: 0.12, Sigma: 0.015}},
		{Weight: 0.18, Gauss: &GaussSpec{Mu: 0.31, Sigma: 0.003}},
		{Weight: 0.15, Gauss: &GaussSpec{Mu: 0.47, Sigma: 0.025}},
		{Weight: 0.12, Gauss: &GaussSpec{Mu: 0.63, Sigma: 0.001}},
		{Weight: 0.13, Gauss: &GaussSpec{Mu: 0.78, Sigma: 0.010}},
		{Weight: 0.10, Gauss: &GaussSpec{Mu: 0.91, Sigma: 0.0004}},
	})
	if err != nil {
		panic("keydist: GnutellaLike construction: " + err.Error()) // static spec, cannot fail
	}
	return m
}()

// Zipf places mass on Sites discrete cluster centres with popularity
// ∝ 1/rank^S, spreading each cluster over a small jitter window. It models
// key spaces organised around popular items (access-skew workloads).
type Zipf struct {
	sites   []float64 // cluster centres in [0,1)
	cum     []float64 // cumulative site probabilities
	jitter  float64
	nameStr string
}

// NewZipf builds a Zipf cluster distribution with the given number of sites,
// exponent s > 0 and per-site jitter half-width (fraction of the circle).
func NewZipf(sites int, s, jitter float64) (*Zipf, error) {
	if sites < 1 {
		return nil, fmt.Errorf("keydist: zipf needs at least one site")
	}
	if s <= 0 {
		return nil, fmt.Errorf("keydist: zipf exponent must be positive")
	}
	if jitter < 0 || jitter > 0.5/float64(sites) {
		return nil, fmt.Errorf("keydist: zipf jitter %g out of range", jitter)
	}
	z := &Zipf{jitter: jitter, nameStr: fmt.Sprintf("zipf(%d,%.2g)", sites, s)}
	var total float64
	probs := make([]float64, sites)
	for i := range probs {
		probs[i] = 1 / math.Pow(float64(i+1), s)
		total += probs[i]
	}
	// Deterministically scatter the sites: golden-ratio low-discrepancy
	// sequence keeps popular sites spread over the circle.
	const golden = 0.6180339887498949
	pos := 0.0
	cum := 0.0
	for i := range probs {
		pos = math.Mod(pos+golden, 1)
		z.sites = append(z.sites, pos)
		cum += probs[i] / total
		z.cum = append(z.cum, cum)
	}
	z.cum[len(z.cum)-1] = 1
	return z, nil
}

// Name implements Distribution.
func (z *Zipf) Name() string { return z.nameStr }

// Sample implements Distribution.
func (z *Zipf) Sample(r *rand.Rand) keyspace.Key {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i == len(z.sites) {
		i--
	}
	x := z.sites[i]
	if z.jitter > 0 {
		x += (r.Float64()*2 - 1) * z.jitter
	}
	return keyspace.FromFloat(math.Mod(x+1, 1))
}

// CDF implements Distribution.
func (z *Zipf) CDF(x float64) float64 {
	x = clamp01(x)
	var sum float64
	prev := 0.0
	for i, site := range z.sites {
		p := z.cum[i] - prev
		prev = z.cum[i]
		if z.jitter == 0 {
			if site < x {
				sum += p
			}
			continue
		}
		lo, hi := site-z.jitter, site+z.jitter
		// Mass of the site's uniform window lying below x, handling wrap.
		sum += p * windowMassBelow(lo, hi, x)
	}
	return sum
}

// windowMassBelow returns the fraction of the uniform window [lo,hi)
// (possibly extending past the unit interval on either side, i.e. wrapping)
// that lies in [0, x).
func windowMassBelow(lo, hi, x float64) float64 {
	width := hi - lo
	mass := overlap(lo, hi, 0, x) // unwrapped part
	if lo < 0 {                   // wrapped low part lives near 1
		mass += overlap(lo+1, 1, 0, x)
		mass -= overlap(lo, 0, 0, x) // remove the below-zero stretch counted above
	}
	if hi > 1 { // wrapped high part lives near 0
		mass += overlap(0, hi-1, 0, x)
		mass -= overlap(1, hi, 0, x)
	}
	return mass / width
}

func overlap(a1, a2, b1, b2 float64) float64 {
	lo := math.Max(a1, b1)
	hi := math.Min(a2, b2)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Empirical resamples (with replacement, plus optional jitter) from an
// observed key set — the path for loading a real trace.
type Empirical struct {
	sorted []float64
	jitter float64
}

// NewEmpirical builds an empirical distribution from observed keys.
func NewEmpirical(keys []keyspace.Key, jitter float64) (*Empirical, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("keydist: empirical distribution needs at least one key")
	}
	e := &Empirical{jitter: jitter}
	e.sorted = make([]float64, len(keys))
	for i, k := range keys {
		e.sorted[i] = k.Float()
	}
	sort.Float64s(e.sorted)
	return e, nil
}

// Name implements Distribution.
func (e *Empirical) Name() string { return "empirical" }

// Sample implements Distribution.
func (e *Empirical) Sample(r *rand.Rand) keyspace.Key {
	x := e.sorted[r.Intn(len(e.sorted))]
	if e.jitter > 0 {
		x = math.Mod(x+(r.Float64()*2-1)*e.jitter+1, 1)
	}
	return keyspace.FromFloat(x)
}

// CDF implements Distribution. Jitter is ignored here: for trace-sized key
// sets the smoothing shifts mass by at most the jitter width.
func (e *Empirical) CDF(x float64) float64 {
	x = clamp01(x)
	return float64(sort.SearchFloat64s(e.sorted, x)) / float64(len(e.sorted))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
