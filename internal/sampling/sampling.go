// Package sampling implements the random-walk machinery Oscar uses to learn
// the key distribution where it matters.
//
// Mercury introduced uniform peer sampling by random walks; Oscar reuses the
// technique but restricts walkers to nested subpopulations: "to sample the
// subsets of the population the Oscar nodes use random walkers which do not
// visit nodes with identifiers that do not belong to the current population".
//
// The walk graph is the undirected view of the overlay (long-range
// out-links plus ring successor/predecessor), filtered to alive peers whose
// keys lie in the target range. Because peer degrees vary, a plain walk
// would over-sample high-degree peers; the Metropolis–Hastings correction
// (accept a move from v to u with probability min(1, deg(v)/deg(u)))
// makes the stationary distribution uniform over the range's peers.
//
// The walk is written once over Graph, which the simulator's network and
// the live node's RPCs both implement: the walker fetches each position's
// neighbour list and steps itself.
package sampling

import (
	"context"
	"sort"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// Graph is the walk's view of an overlay.
type Graph[P any] interface {
	// Neighbors returns p's neighbours whose keys lie in rg, as a
	// multiset: an edge reachable two ways (say a peer that is both the
	// successor and a link target) appears twice. Both ends of an edge
	// count it equally often, which keeps the Metropolis–Hastings proposal
	// symmetric — the condition for a uniform stationary distribution.
	// Each call is one message.
	Neighbors(ctx context.Context, p P, rg keyspace.Range) ([]P, error)
}

// Rand is the random stream a walk draws from.
type Rand interface {
	Float64() float64
	Intn(n int) int
}

// lazyProb is the per-step probability of staying put. A lazy chain is
// aperiodic on every graph; without it, near-bipartite walk graphs (e.g. a
// range containing exactly two peers, whose ring edges form a 2-cycle) lock
// the walker to the parity of the step count and samples never mix.
const lazyProb = 1.0 / 3

// step advances the walk one Metropolis–Hastings step from cur, whose
// in-range neighbours are nbrs, and returns the next position, its
// neighbours and the messages sent. The chain is lazy, and a rejected
// move, an unreachable or isolated proposal, or a position with no
// neighbour also stay.
func step[P any](ctx context.Context, g Graph[P], rnd Rand, cur P, nbrs []P, rg keyspace.Range) (P, []P, int) {
	if rnd.Float64() < lazyProb || len(nbrs) == 0 {
		return cur, nbrs, 0
	}
	next := nbrs[rnd.Intn(len(nbrs))]
	nn, err := g.Neighbors(ctx, next, rg)
	if err != nil || len(nn) == 0 {
		return cur, nbrs, 1
	}
	// MH acceptance for a uniform target: min(1, deg(v)/deg(u)).
	if dv, du := len(nbrs), len(nn); du <= dv || rnd.Float64() < float64(dv)/float64(du) {
		return next, nn, 1
	}
	return cur, nbrs, 1
}

// Walk performs steps lazy MH steps from start within rg and returns the
// final position and the messages sent: one to learn start's neighbours
// and one per proposed move. It fails only when start's neighbours cannot
// be fetched. Cancelling ctx ends the walk where it stands.
func Walk[P any](ctx context.Context, g Graph[P], rnd Rand, start P, rg keyspace.Range, steps int) (P, int, error) {
	nbrs, err := g.Neighbors(ctx, start, rg)
	if err != nil {
		return start, 1, err
	}
	cur, msgs := start, 1
	for s := 0; s < steps && ctx.Err() == nil; s++ {
		var m int
		cur, nbrs, m = step(ctx, g, rnd, cur, nbrs, rg)
		msgs += m
	}
	return cur, msgs, nil
}

// SampleChain draws count approximately-uniform peers from rg with one
// chained walk from start, whose in-range neighbours are nbrs: a sample
// every steps moves, so the first sample's burn-in is amortised over the
// rest. It returns the samples and the messages sent; cancelling ctx
// returns the samples so far with ctx.Err().
func SampleChain[P any](ctx context.Context, g Graph[P], rnd Rand, start P, nbrs []P, rg keyspace.Range, count, steps int) ([]P, int, error) {
	samples := make([]P, 0, count)
	cur, msgs := start, 0
	for moves := 1; len(samples) < count; moves++ {
		if err := ctx.Err(); err != nil {
			return samples, msgs, err
		}
		var m int
		cur, nbrs, m = step(ctx, g, rnd, cur, nbrs, rg)
		msgs += m
		if moves%steps == 0 {
			samples = append(samples, cur)
		}
	}
	return samples, msgs, nil
}

// MedianFrom returns the median of keys in clockwise order from origin: the
// key m such that half the keys lie in [origin, m) and half in [m, ...).
// With an even count the upper-middle key is returned, matching the
// partition convention that the far half contains ⌈n/2⌉ peers.
func MedianFrom(origin keyspace.Key, keys []keyspace.Key) keyspace.Key {
	if len(keys) == 0 {
		return origin
	}
	sorted := append([]keyspace.Key(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool {
		return origin.Distance(sorted[i]) < origin.Distance(sorted[j])
	})
	return sorted[len(sorted)/2]
}
