// Package partition implements the core construction of the paper's §2:
// each Oscar node u splits the identifier circle into logarithmically many
// partitions A1..AL of geometrically shrinking population.
//
// Walking clockwise from uid, the border between A1 and A2 is the median m1
// of the whole population; the border between A2 and A3 is the median m2 of
// the subpopulation remaining after removing A1 (the far half); and so on:
// A_i = [m_i, m_{i-1}) with m_0 = uid. Ideally |A1| = n/2, |A2| = n/4, …
// The partition count adapts to the (unknown) network size: splitting stops
// when the remaining population is exhausted, so roughly log₂ N levels
// emerge without any global knowledge.
//
// The deployable algorithm estimates each median from range-restricted
// random-walk samples ("very good results in practice even with very low
// sample sizes"); it is core.Discover, run by the simulator and the live
// node alike. BuildExact computes true medians from the global ring: the
// oracle of the tests and of the accuracy ablation.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/ring"
)

// Partitions is the result of the construction for one node.
type Partitions struct {
	// NodeKey is the peer's identifier (m_0).
	NodeKey keyspace.Key
	// Borders holds m_1, m_2, … m_L: each border is closer (clockwise-wise)
	// to the node than the previous one.
	Borders []keyspace.Key
}

// Count returns the number of partitions L.
func (p *Partitions) Count() int { return len(p.Borders) }

// Range returns partition A_(i+1) for i in [0, Count): Range(0) is the far
// half [m_1, uid), Range(Count-1) the nearest population.
func (p *Partitions) Range(i int) keyspace.Range {
	if i == 0 {
		return keyspace.Range{Start: p.Borders[0], End: p.NodeKey}
	}
	return keyspace.Range{Start: p.Borders[i], End: p.Borders[i-1]}
}

// Ranges returns all partitions, far half first.
func (p *Partitions) Ranges() []keyspace.Range {
	out := make([]keyspace.Range, p.Count())
	for i := range out {
		out[i] = p.Range(i)
	}
	return out
}

// CheckInvariants verifies the structural partition properties: borders
// strictly approach the node clockwise and ranges tile the circle minus the
// node's own position.
func (p *Partitions) CheckInvariants() error {
	prev := p.NodeKey // m_0
	for i, b := range p.Borders {
		if b == p.NodeKey {
			return fmt.Errorf("partition: border %d equals the node key", i)
		}
		if i > 0 {
			// b must lie strictly inside [nodeKey, prev).
			if !(keyspace.Range{Start: p.NodeKey, End: prev}).Contains(b) {
				return fmt.Errorf("partition: border %d (%v) not inside remaining range [%v,%v)", i, b, p.NodeKey, prev)
			}
		}
		prev = b
	}
	return nil
}

// BuildExact computes true-median partitions from global knowledge. The
// population is every alive peer except u itself.
func BuildExact(net *graph.Network, rg *ring.Ring, u graph.NodeID) *Partitions {
	node := net.Node(u)
	p := &Partitions{NodeKey: node.Key}
	// Alive peers other than u, in key order from 0, rotated so pop runs
	// clockwise from just past u's key.
	var pop []keyspace.Key
	for _, id := range rg.AliveOrdered() {
		if id != u {
			pop = append(pop, net.Node(id).Key)
		}
	}
	past := sort.Search(len(pop), func(i int) bool { return pop[i] > node.Key })
	pop = slices.Concat(pop[past:], pop[:past])
	for len(pop) > 0 {
		mid := len(pop) / 2
		border := pop[mid]
		if border == node.Key {
			// A peer sharing u's key: it is covered by the previous border.
			break
		}
		if len(p.Borders) > 0 && border == p.Borders[len(p.Borders)-1] {
			// Duplicate keys straddling the median: the equal-key peers are
			// already covered by the previous partition; keep halving.
			pop = pop[:mid]
			continue
		}
		p.Borders = append(p.Borders, border)
		pop = pop[:mid]
	}
	return p
}
