// Package routing is the overlay's key lookup, written once: Rank picks a
// peer's next hop toward a key from the peer's own view, and Walk drives a
// lookup from peer to peer. The simulator (internal/sim) runs it over the
// graph, the live node (internal/p2p) over find_owner and ping messages.
//
// A peer does not know remotely whether a neighbour is alive: asking a dead
// one costs a probe message ("wasted traffic"), and a peer whose useful
// neighbours are all dead or excluded sends the query back to the peer
// before it, which continues from its next-best option. That is the
// paper's §3 modification of greedy routing for faulty networks; on a
// healthy network the walk is plain greedy forwarding, with O(log N)
// expected hops over Oscar's harmonic links and O(log² N) worst case.
//
// Search cost is counted in messages: forward moves plus dead probes plus
// backtrack moves, which is the metric behind Figures 1(c) and 2.
package routing

import (
	"errors"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// Discipline selects how Rank orders a peer's candidate next hops.
type Discipline int

const (
	// Clockwise forwards over the successor list and the out-links to the
	// candidate with the largest clockwise progress that does not
	// overshoot the key, as in Chord and Symphony.
	Clockwise Discipline = iota
	// Circular also forwards over the predecessor and the in-links (a link
	// is a route in both directions once it exists), to the candidate
	// circularly closest to the key. Every hop must strictly shorten that
	// distance, except a hop to the successor.
	Circular
)

// View is one peer's routing state: itself, its predecessor, its
// successor list (immediate successor first; empty when the peer is
// alone) and its long-range out- and in-links.
type View[P comparable] struct {
	Self, Pred P
	Succs      []P
	Out, In    []P
}

// Answer is what an asked peer tells a walk.
type Answer int

const (
	// Owned: the asked peer owns the key.
	Owned Answer = iota
	// Hop: the asked peer names its next hop.
	Hop
	// NoRoute: every next hop the asked peer would take is excluded.
	NoRoute
	// Silent: the asked peer did not answer. Rank never returns it.
	Silent
)

// Rank answers a walk toward k at v.Self, skipping the peers excluded
// reports; keyOf gives a peer's key. The peer owns k when k lies in
// (pred, self] or the peer is alone. Its successor owns k when k lies in
// (self, succ], and then the answer is that successor, or NoRoute when it
// is excluded. Otherwise the answer is the best candidate under disc, or
// NoRoute when there is none.
func Rank[P comparable](v View[P], keyOf func(P) keyspace.Key, k keyspace.Key, excluded func(P) bool, disc Discipline) (P, Answer) {
	var none P
	if len(v.Succs) == 0 || v.Succs[0] == v.Self {
		return v.Self, Owned
	}
	self, succ := keyOf(v.Self), v.Succs[0]
	if k.BetweenIncl(keyOf(v.Pred), self) {
		return v.Self, Owned
	}
	if k.BetweenIncl(self, keyOf(succ)) {
		if excluded(succ) {
			return none, NoRoute
		}
		return succ, Hop
	}
	// left is the distance to k a hop to p leaves, and ok whether the
	// discipline lets p be a hop.
	var left func(p P) (uint64, bool)
	if disc == Circular {
		dist := self.CircularDistance(k)
		left = func(p P) (uint64, bool) {
			d := keyOf(p).CircularDistance(k)
			return d, d < dist
		}
	} else {
		toKey := self.Distance(k)
		left = func(p P) (uint64, bool) {
			d := self.Distance(keyOf(p))
			return toKey - d, d > 0 && d <= toKey
		}
	}
	best, bestLeft, found := none, uint64(0), false
	try := func(p P, anyway bool) {
		if excluded(p) {
			return
		}
		if l, ok := left(p); (ok || anyway) && (!found || l < bestLeft) {
			best, bestLeft, found = p, l, true
		}
	}
	try(succ, true)
	for _, p := range v.Succs[1:] {
		try(p, false)
	}
	for _, p := range v.Out {
		try(p, false)
	}
	if disc == Circular {
		for _, p := range v.In {
			try(p, false)
		}
		try(v.Pred, false)
	}
	if !found {
		return none, NoRoute
	}
	return best, Hop
}

// Substrate is the network a walk runs over.
type Substrate[P comparable] interface {
	// Ask asks p for its next hop toward k, telling it the peers the walk
	// excludes. An error ends the walk.
	Ask(p P, k keyspace.Key, exclude []P) (P, Answer, error)
	// Alive probes ps at once and reports which answered. An error ends
	// the walk.
	Alive(ps []P) ([]bool, error)
}

// Result reports one lookup.
type Result[P comparable] struct {
	// Found is false when the walk ran out of route or of budget.
	Found bool
	// Owner is the peer the walk ended at, the key's owner when Found.
	Owner P
	// Hops counts forward moves to peers that answered.
	Hops int
	// Probes counts peers that did not answer.
	Probes int
	// Backtracks counts moves back from a peer that had no route.
	Backtracks int
	// Path lists the peers the query moved through, starting with the
	// source.
	Path []P
}

// Cost returns the total message count: hops + probes + backtracks.
func (r Result[P]) Cost() int { return r.Hops + r.Probes + r.Backtracks }

// ErrBudget reports a walk that asked its whole budget of peers without
// reaching the owner: only a broken topology runs out.
var ErrBudget = errors.New("routing: hop budget exhausted")

// backtrackFan is how many stack entries a backtrack probes at once:
// consecutive dead peers cost one overlapped timeout instead of one each.
const backtrackFan = 4

// Walk routes from start toward the owner of k, asking at most budget
// peers. A peer that names a hop goes on the stack and the walk asks the
// hop. A peer that does not answer, or answers NoRoute, joins the excluded
// peers every later ask carries, and the walk resumes at the deepest stack
// entry that answers a liveness probe. Resuming at the peer that named a
// dead hop is not a move: the query never left it. The walk returns the
// substrate's error as is, and ErrBudget when the budget runs out.
func Walk[P comparable](s Substrate[P], start P, k keyspace.Key, budget int) (Result[P], error) {
	w := walk[P]{s: s, res: Result[P]{Path: []P{start}}}
	cur, hopped := start, false // hopped: a hop named cur, which has not answered yet
	for range budget {
		w.res.Owner = cur
		next, ans, err := s.Ask(cur, k, w.exclude)
		if err != nil {
			return w.res, err
		}
		if ans == Silent {
			w.res.Probes++
		} else if hopped {
			w.res.Hops++
			w.res.Path = append(w.res.Path, cur)
		}
		switch ans {
		case Owned:
			w.res.Found = true
			return w.res, nil
		case Hop:
			w.stack = append(w.stack, cur)
			cur, hopped = next, true
			continue
		}
		w.exclude = append(w.exclude, cur)
		back, ok, err := w.backtrack()
		if err != nil || !ok {
			return w.res, err
		}
		if ans == NoRoute {
			w.res.Backtracks++
			w.res.Path = append(w.res.Path, back)
		}
		cur, hopped = back, false
	}
	return w.res, ErrBudget
}

// walk is one lookup's state: the peers it excludes and the peers it can
// backtrack to, deepest last.
type walk[P comparable] struct {
	s              Substrate[P]
	res            Result[P]
	exclude, stack []P
}

// backtrack pops the deepest live stack entry, probing up to backtrackFan
// entries per round. Dead entries join the excluded peers and count as
// probes; live shallower ones go back on the stack. ok is false when the
// stack runs out.
func (w *walk[P]) backtrack() (back P, ok bool, err error) {
	for len(w.stack) > 0 {
		k := min(backtrackFan, len(w.stack))
		cands := append([]P(nil), w.stack[len(w.stack)-k:]...)
		w.stack = w.stack[:len(w.stack)-k]
		alive, err := w.s.Alive(cands)
		if err != nil {
			return back, false, err
		}
		chosen := -1 // the deepest live entry
		for i := range k {
			if alive[i] {
				chosen = i
			}
		}
		for i, p := range cands {
			switch {
			case i == chosen:
			case alive[i]:
				w.stack = append(w.stack, p)
			default:
				w.exclude = append(w.exclude, p)
				w.res.Probes++
			}
		}
		if chosen >= 0 {
			return cands[chosen], true, nil
		}
	}
	return back, false, nil
}
