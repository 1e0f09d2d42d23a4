// Package smallworld provides the idealised Kleinberg reference
// construction: rank-harmonic long-range links drawn with full global
// knowledge of the peer population.
//
// It is the upper bound both Oscar and Mercury approximate — Oscar through
// nested median sampling, Mercury through a histogram. The simulator uses it
// as a calibration baseline and the ablation harness compares how close each
// approximation gets.
package smallworld

import (
	"math"
	"math/rand"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/ring"
)

// Retries is the simulator's redraw budget per link slot: none, so each
// slot gets one harmonic draw, as an Oscar slot gets one power-of-two
// choice.
const Retries = 0

// WireAll rebuilds every alive peer's long-range links with exact
// rank-harmonic draws: for each link, rank r is drawn from pdf(r) ∝ 1/r over
// [1, n-1] and the peer r positions clockwise becomes the candidate. The
// same in-degree admission rule applies; a refused or duplicate candidate
// is redrawn up to retries times.
func WireAll(net *graph.Network, rg *ring.Ring, retries int, rnd *rand.Rand) core.WireStats {
	var stats core.WireStats
	// Snapshot the alive population in clockwise order once; positions stay
	// valid for the whole pass because wiring changes no keys or liveness.
	alive := rg.AliveOrdered()
	n := len(alive)
	pos := make(map[graph.NodeID]int, n)
	for i, id := range alive {
		pos[id] = i
	}
	if n < 2 {
		return stats
	}
	for _, u := range alive {
		node := net.Node(u)
		stats.LinksWanted += node.MaxOut
		net.DropLinks(u)
		for slot := 0; slot < node.MaxOut; slot++ {
			if wireOne(net, alive, pos[u], retries, rnd) {
				stats.LinksMade++
			}
		}
	}
	return stats
}

func wireOne(net *graph.Network, alive []graph.NodeID, upos, retries int, rnd *rand.Rand) bool {
	n := len(alive)
	for attempt := 0; attempt <= retries; attempt++ {
		cand := alive[(upos+HarmonicRank(rnd, n-1))%n]
		if net.AddLink(alive[upos], cand) == nil {
			return true
		}
	}
	return false
}

// HarmonicRank draws a rank in [1, max] with pdf(r) ∝ 1/r via inverse
// transform on the continuous relaxation (Symphony's draw).
func HarmonicRank(rnd *rand.Rand, max int) int {
	if max <= 1 {
		return 1
	}
	r := int(math.Exp(rnd.Float64() * math.Log(float64(max))))
	if r < 1 {
		r = 1
	}
	if r > max {
		r = max
	}
	return r
}
