// Package mercury implements the Mercury baseline [Bharambe, Agrawal,
// Seshan, SIGCOMM 2004] the paper compares against.
//
// Mercury also builds a Symphony-style small world over a skewed key space,
// but it learns the key distribution globally and with uniform resolution:
// each node samples peers uniformly at random (random walks), accumulates
// their keys in a fixed-bucket histogram over the identifier space, and
// inverts that histogram to translate a harmonically drawn *rank* distance
// into a *key* distance. When the key density has spikes narrower than a
// bucket, the within-bucket-uniform assumption misplaces links badly — the
// failure mode Oscar's nested-median sampling avoids (see [8] as cited in
// the paper's §2/§3).
//
// For the degree-volume comparison, Mercury uses the same in-degree
// admission rule but no power-of-two choice: candidates are determined by
// the drawn key alone.
package mercury

import (
	"context"
	"math"
	"math/rand"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/ring"
	"github.com/oscar-overlay/oscar/internal/sampling"
)

// Config tunes the Mercury wiring algorithm.
type Config struct {
	// Buckets is the histogram resolution over the identifier space.
	Buckets int
	// Samples is the number of uniform peer samples used to fill the
	// histogram.
	Samples int
	// WalkSteps is the walk length per sample.
	WalkSteps int
	// LinkRetries is how many fresh harmonic draws a node spends on a link
	// slot after a refusal. The default of 1 gives Mercury the same
	// two-candidates-per-slot budget Oscar's power-of-two rule uses, and
	// lands at the paper's ≈61% exploited degree volume.
	LinkRetries int
}

// DefaultConfig follows Mercury's published parameters scaled to the
// experiment sizes: k ≈ log n samples would be too few to fill the
// histogram, so Mercury uses on the order of 50–100 samples per node.
func DefaultConfig() Config {
	return Config{Buckets: 50, Samples: 60, WalkSteps: 10, LinkRetries: 1}
}

// Histogram is Mercury's uniform-resolution estimate of the key density.
type Histogram struct {
	mass []float64 // normalised bucket masses, summing to 1
}

// NewHistogram builds the density estimate from sampled keys. Buckets that
// received no sample get zero mass: Mercury cannot see what it did not
// sample.
func NewHistogram(buckets int, keys []keyspace.Key) *Histogram {
	h := &Histogram{mass: make([]float64, buckets)}
	if len(keys) == 0 {
		// No information: assume uniform, Mercury's bootstrap default.
		for i := range h.mass {
			h.mass[i] = 1 / float64(buckets)
		}
		return h
	}
	inc := 1 / float64(len(keys))
	for _, k := range keys {
		b := int(k.Float() * float64(buckets))
		if b == buckets {
			b--
		}
		h.mass[b] += inc
	}
	return h
}

// InvertFrom returns the key t such that the estimated population mass of
// the clockwise arc [from, t) equals f (f in [0,1)). Mass inside a bucket is
// assumed uniform — the resolution limit at the heart of the comparison.
func (h *Histogram) InvertFrom(from keyspace.Key, f float64) keyspace.Key {
	if f <= 0 {
		return from
	}
	if f >= 1 {
		f = math.Nextafter(1, 0)
	}
	buckets := len(h.mass)
	start := from.Float() * float64(buckets)
	bi := int(start)
	if bi == buckets {
		bi--
	}
	// Mass remaining in the starting bucket, clockwise of `from`.
	frac := start - float64(bi)
	remaining := h.mass[bi] * (1 - frac)
	need := f
	pos := bi
	cons := 0
	for cons < buckets+1 {
		if remaining >= need && h.mass[pos] > 0 {
			// The target lies inside this bucket: the within-bucket density
			// is assumed uniform, so advancing Δ bucket-widths consumes
			// mass[pos]·Δ of mass.
			base := 0.0
			if cons == 0 {
				base = frac // the first bucket is entered mid-way
			}
			delta := need / h.mass[pos]
			x := (float64(pos) + base + delta) / float64(buckets)
			return keyspace.FromFloat(x)
		}
		need -= remaining
		pos = (pos + 1) % buckets
		remaining = h.mass[pos]
		cons++
	}
	// Numerical dust: wrap to just before `from`.
	return from - 1
}

// Wire (re)builds node u's long-range links the Mercury way. nAlive is the
// network-size estimate; Mercury has its own estimator (also walk-based) —
// the simulator supplies the true count because estimator error is not what
// the comparison measures. The sampling walk draws from walk.
func Wire(net *graph.Network, rg *ring.Ring, walk *rand.Rand, u graph.NodeID,
	cfg Config, nAlive int, rnd *rand.Rand) core.WireStats {

	node := net.Node(u)
	stats := core.WireStats{LinksWanted: node.MaxOut}
	net.DropLinks(u)
	if nAlive < 2 {
		return stats
	}

	// Learn the key distribution at uniform resolution. The graph fails
	// no call of this walk: u is alive, and ctx never ends.
	ctx, full := context.Background(), keyspace.FullRange()
	nbrs, _ := net.Neighbors(ctx, u, full)
	samples, cost, _ := sampling.SampleChain(ctx, net, walk, u, nbrs, full, cfg.Samples, cfg.WalkSteps)
	stats.SampleCost = cost
	keys := make([]keyspace.Key, len(samples))
	for i, id := range samples {
		keys[i] = net.Node(id).Key
	}
	hist := NewHistogram(cfg.Buckets, keys)

	for slot := 0; slot < node.MaxOut; slot++ {
		if acquireLink(net, rg, u, hist, cfg, nAlive, rnd) {
			stats.LinksMade++
		}
	}
	return stats
}

// acquireLink draws harmonic rank distances until a link sticks or retries
// run out; a refused or duplicate candidate is redrawn.
func acquireLink(net *graph.Network, rg *ring.Ring, u graph.NodeID, hist *Histogram,
	cfg Config, nAlive int, rnd *rand.Rand) bool {

	node := net.Node(u)
	for attempt := 0; attempt <= cfg.LinkRetries; attempt++ {
		// Harmonic draw over rank distance [1, n-1]: pdf(d) ∝ 1/d, via
		// d = exp(U · ln(n-1)) (Symphony's construction).
		d := math.Exp(rnd.Float64() * math.Log(float64(nAlive-1)))
		f := d / float64(nAlive)
		target := hist.InvertFrom(node.Key, f)
		cand := rg.OwnerOf(target)
		if cand != u && net.AddLink(u, cand) == nil {
			return true
		}
	}
	return false
}
