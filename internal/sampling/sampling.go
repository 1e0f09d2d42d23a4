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
// The walk is written once over a View, one rewiring pass's picture of
// the overlay: the first time the pass's walks step onto a peer, the view
// asks it for its whole neighbour list (one message, through Graph, which
// the simulator's network and the live node's RPCs both implement), and
// every later step onto that peer filters the cached list by the walk's
// range, and keeps the peer's load that came with it. The range filter is
// written here only.
package sampling

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// ErrOutOfRange reports a walk asked to stand on a peer outside its range.
var ErrOutOfRange = errors.New("sampling: peer outside the walk's range")

// Neighbor is one entry of a neighbour list: a peer and its key, which
// the walk's range filter reads.
type Neighbor[P any] struct {
	Peer P
	Key  keyspace.Key
}

// Load is a peer's in-degree and its cap ρmax_in.
type Load struct{ In, Max int }

// Rel is the relative load In/Max; a peer with no cap is full (1).
func (l Load) Rel() float64 {
	if l.Max <= 0 {
		return 1
	}
	return float64(l.In) / float64(l.Max)
}

// Graph is the overlay a View asks.
type Graph[P any] interface {
	// Key returns p's key.
	Key(p P) keyspace.Key
	// Neighbors returns p's neighbours as a multiset, and p's load: an
	// edge reachable two ways (say a peer that is both the successor and a
	// link target) appears twice. Both ends of an edge count it equally
	// often, which keeps the Metropolis–Hastings proposal symmetric — the
	// condition for a uniform stationary distribution. One message.
	Neighbors(ctx context.Context, p P) ([]Neighbor[P], Load, error)
}

// View is one pass's neighbour lists and loads: it asks each peer for its
// list once and answers every later question about that peer, in any
// range, from the copy. Its methods are safe for concurrent use; two walks
// asking for the same peer at once send one message. A failed fetch is not
// kept, so the next question about that peer asks again.
type View[P comparable] struct {
	g     Graph[P]
	mu    sync.Mutex
	lists map[P][]Neighbor[P]
	loads map[P]Load
	// fetching lists the peers whose fetch is in flight, and done is
	// broadcast, under mu, when one ends. Only walks running at once
	// fetch at once, so the list stays that short.
	fetching []P
	done     sync.Cond
}

// NewView opens a view over g for the node self, whose own neighbours are
// own: the walks read them with no message.
func NewView[P comparable](g Graph[P], self P, own []Neighbor[P]) *View[P] {
	v := &View[P]{g: g, lists: map[P][]Neighbor[P]{self: own}, loads: map[P]Load{}}
	v.done.L = &v.mu
	return v
}

// Load returns p's load as its list reported it, moved since by Moved;
// the zero Load unless the view fetched p's list.
func (v *View[P]) Load(p P) Load {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.loads[p]
}

// Moved records that the pass changed p's in-degree by d: a load the view
// holds follows, and a list fetched later reports the move itself.
func (v *View[P]) Moved(p P, d int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if l, ok := v.loads[p]; ok {
		v.loads[p] = Load{l.In + d, l.Max}
	}
}

// Neighbors returns p's neighbours whose keys lie in rg, written over
// dst, and the messages it sent: one the first time the view meets p
// (again after a failed fetch), none after. A p outside rg has no place
// in the walk and fails with ErrOutOfRange.
func (v *View[P]) Neighbors(ctx context.Context, p P, rg keyspace.Range, dst []P) ([]P, int, error) {
	dst = dst[:0]
	if !rg.Contains(v.g.Key(p)) {
		return dst, 0, ErrOutOfRange
	}
	l, sent, err := v.list(ctx, p)
	if cap(dst) < len(l) {
		dst = make([]P, 0, len(l))
	}
	for _, n := range l {
		if rg.Contains(n.Key) {
			dst = append(dst, n.Peer)
		}
	}
	return dst, sent, err
}

// list returns p's whole list, fetching it unless the view holds it. A
// caller that finds p's fetch in flight waits for it, however long the
// fetching caller's ctx lets it run.
func (v *View[P]) list(ctx context.Context, p P) ([]Neighbor[P], int, error) {
	v.mu.Lock()
	for {
		if l, ok := v.lists[p]; ok {
			v.mu.Unlock()
			return l, 0, nil
		}
		if !slices.Contains(v.fetching, p) {
			break
		}
		v.done.Wait()
	}
	v.fetching = append(v.fetching, p)
	v.mu.Unlock()
	l, load, err := v.g.Neighbors(ctx, p)
	v.mu.Lock()
	if err == nil {
		v.lists[p], v.loads[p] = l, load
	}
	i := slices.Index(v.fetching, p)
	v.fetching = slices.Delete(v.fetching, i, i+1)
	v.done.Broadcast()
	v.mu.Unlock()
	return l, 1, err
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

// walker is one walk inside rg: its position, that position's in-range
// neighbours, and a spare list the next proposal's are written into.
type walker[P comparable] struct {
	v          *View[P]
	rg         keyspace.Range
	cur        P
	nbrs, next []P
}

// start places the walk on p and returns the messages that took.
func (w *walker[P]) start(ctx context.Context, p P) (int, error) {
	nbrs, sent, err := w.v.Neighbors(ctx, p, w.rg, nil)
	w.cur, w.nbrs = p, nbrs
	return sent, err
}

// step advances the walk one Metropolis–Hastings step and returns the
// messages sent. The chain is lazy, and a rejected move, an unreachable
// or isolated proposal, or a position with no neighbour also stay.
func (w *walker[P]) step(ctx context.Context, rnd Rand) int {
	if rnd.Float64() < lazyProb || len(w.nbrs) == 0 {
		return 0
	}
	next := w.nbrs[rnd.Intn(len(w.nbrs))]
	nn, sent, err := w.v.Neighbors(ctx, next, w.rg, w.next)
	w.next = nn
	if err != nil || len(nn) == 0 {
		return sent
	}
	// MH acceptance for a uniform target: min(1, deg(v)/deg(u)).
	if dv, du := len(w.nbrs), len(nn); du <= dv || rnd.Float64() < float64(dv)/float64(du) {
		w.cur, w.nbrs, w.next = next, nn, w.nbrs
	}
	return sent
}

// Walk performs steps lazy MH steps from start within rg over v and
// returns the final position and the messages sent. It fails only when
// start lies outside rg or its neighbours cannot be fetched. Cancelling
// ctx ends the walk where it stands.
func Walk[P comparable](ctx context.Context, v *View[P], rnd Rand, start P, rg keyspace.Range, steps int) (P, int, error) {
	w := walker[P]{v: v, rg: rg}
	msgs, err := w.start(ctx, start)
	if err != nil {
		return start, msgs, err
	}
	for s := 0; s < steps && ctx.Err() == nil; s++ {
		msgs += w.step(ctx, rnd)
	}
	return w.cur, msgs, nil
}

// SampleChain draws count approximately-uniform peers from rg with one
// chained walk from start over v: a sample every steps moves, so the first
// sample's burn-in is amortised over the rest. It returns the samples and
// the messages sent; it fails as Walk does, and cancelling ctx returns the
// samples so far with ctx.Err().
func SampleChain[P comparable](ctx context.Context, v *View[P], rnd Rand, start P, rg keyspace.Range, count, steps int) ([]P, int, error) {
	w := walker[P]{v: v, rg: rg}
	msgs, err := w.start(ctx, start)
	if err != nil {
		return nil, msgs, err
	}
	samples := make([]P, 0, count)
	for moves := 1; len(samples) < count; moves++ {
		if err := ctx.Err(); err != nil {
			return samples, msgs, err
		}
		msgs += w.step(ctx, rnd)
		if moves%steps == 0 {
			samples = append(samples, w.cur)
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
