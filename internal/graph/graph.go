// Package graph holds the overlay topology model used by the sequential
// simulator: the set of peers, their degree budgets, their long-range links,
// in-degree accounting and liveness.
//
// The model follows the paper's §3 setup: every peer p has ρmax_in(p) and
// ρmax_out(p); during construction p tries to establish up to ρmax_out(p)
// long-range links, and a contacted peer acknowledges a new in-link only
// while it has fewer than ρmax_in incoming links. Because establishing a
// link is a handshake, both endpoints know about it: each node keeps its
// out-link and in-link lists. That symmetric view is what random-walk
// sampling traverses (a Metropolis–Hastings walk needs symmetric proposals
// to converge to the uniform distribution).
package graph

import (
	"context"
	"errors"
	"fmt"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/sampling"
)

// NodeID identifies a peer inside one Network. IDs are dense indices and
// never reused, so they stay valid across churn.
type NodeID int32

// NoNode is the null NodeID.
const NoNode NodeID = -1

// Errors returned by link manipulation.
var (
	// ErrRefused reports that the target peer is at its in-degree cap and
	// declined the connection — the admission rule of §3.
	ErrRefused = errors.New("graph: target refused link (in-degree cap reached)")
	// ErrSelfLink reports an attempt to link a peer to itself.
	ErrSelfLink = errors.New("graph: self-link not allowed")
	// ErrDuplicate reports that the link already exists.
	ErrDuplicate = errors.New("graph: duplicate link")
	// ErrDead reports an operation on a dead peer.
	ErrDead = errors.New("graph: peer is dead")
)

// Node is one peer.
type Node struct {
	ID     NodeID
	Key    keyspace.Key
	MaxIn  int // ρmax_in: incoming long-range links the peer accepts
	MaxOut int // ρmax_out: outgoing long-range links the peer maintains

	// Out lists long-range out-link targets. Under churn entries may point
	// at dead peers ("stale links"); routing discovers this by probing.
	Out []NodeID
	// In lists the alive peers holding a long-range link to this node (the
	// handshake makes in-links known). Sources remove themselves when they
	// drop the link or die.
	In []NodeID

	// Succ and Pred are the ring pointers, maintained by package ring. They
	// always reference alive peers (the paper assumes ring self-stabilisation).
	Succ, Pred NodeID

	Alive bool
}

// InDeg returns the number of alive peers linking to n.
func (n *Node) InDeg() int { return len(n.In) }

// Load returns n's in-degree and its cap.
func (n *Node) Load() sampling.Load { return sampling.Load{In: len(n.In), Max: n.MaxIn} }

// HasOut reports whether n already links to target.
func (n *Node) HasOut(target NodeID) bool {
	for _, t := range n.Out {
		if t == target {
			return true
		}
	}
	return false
}

// Network is the collection of peers.
type Network struct {
	nodes []*Node
	alive int
}

// New creates an empty network.
func New() *Network { return &Network{} }

// Add creates a new alive peer with the given key and degree caps and
// returns it. Ring pointers start at NoNode until the ring inserts the peer.
func (g *Network) Add(key keyspace.Key, maxIn, maxOut int) *Node {
	n := &Node{
		ID:     NodeID(len(g.nodes)),
		Key:    key,
		MaxIn:  maxIn,
		MaxOut: maxOut,
		Succ:   NoNode,
		Pred:   NoNode,
		Alive:  true,
	}
	g.nodes = append(g.nodes, n)
	g.alive++
	return n
}

// Node returns the peer with the given id. It panics on an invalid id: ids
// are produced by this package, so an invalid one is a programming error.
func (g *Network) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("graph: invalid node id %d", id))
	}
	return g.nodes[id]
}

// Key returns the key of the peer with the given id.
func (g *Network) Key(id NodeID) keyspace.Key { return g.Node(id).Key }

// Len returns the total number of peers ever added (alive and dead).
func (g *Network) Len() int { return len(g.nodes) }

// AliveCount returns the number of alive peers.
func (g *Network) AliveCount() int { return g.alive }

// AddLink opens a long-range link from -> to, enforcing the admission rule:
// the target accepts only while InDeg < MaxIn. Self-links and duplicates are
// rejected.
func (g *Network) AddLink(from, to NodeID) error {
	if from == to {
		return ErrSelfLink
	}
	src, dst := g.Node(from), g.Node(to)
	if !src.Alive || !dst.Alive {
		return ErrDead
	}
	if src.HasOut(to) {
		return ErrDuplicate
	}
	if len(dst.In) >= dst.MaxIn {
		return ErrRefused
	}
	src.Out = append(src.Out, to)
	dst.In = append(dst.In, from)
	return nil
}

// removeFrom deletes the first occurrence of id in list, preserving order.
func removeFrom(list []NodeID, id NodeID) []NodeID {
	for i, v := range list {
		if v == id {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// DropLinks removes all out-links of the peer, releasing the in-degree it
// held at its targets (dead targets included: the source de-registers
// either way).
func (g *Network) DropLinks(id NodeID) {
	n := g.Node(id)
	for _, t := range n.Out {
		tn := g.Node(t)
		tn.In = removeFrom(tn.In, id)
	}
	n.Out = n.Out[:0]
}

// Kill marks the peer dead and de-registers it from its targets' in-link
// lists (a dead source no longer consumes anyone's in-degree budget). Links
// *to* the dead peer are left in place in the holders' Out lists: they are
// the stale links routing must probe around under churn.
func (g *Network) Kill(id NodeID) {
	n := g.Node(id)
	if !n.Alive {
		return
	}
	n.Alive = false
	g.alive--
	for _, t := range n.Out {
		tn := g.Node(t)
		tn.In = removeFrom(tn.In, id)
	}
}

// Neighbors lists the alive neighbours of id (ring successor and
// predecessor, long-range out-links and in-links) with their keys, and
// id's load, for the restricted walk (sampling.Graph). The list is a
// multiset: an edge reachable two ways appears twice, and because ring
// pointers and in/out lists match each other, the multiplicity of (v,u)
// equals that of (u,v). A dead id has no place in the walk.
func (g *Network) Neighbors(_ context.Context, id NodeID) ([]sampling.Neighbor[NodeID], sampling.Load, error) {
	n := g.Node(id)
	if !n.Alive {
		return nil, sampling.Load{}, ErrDead
	}
	out := make([]sampling.Neighbor[NodeID], 0, 2+len(n.Out)+len(n.In))
	consider := func(t NodeID) {
		if t == NoNode || t == id {
			return
		}
		if tn := g.Node(t); tn.Alive {
			out = append(out, sampling.Neighbor[NodeID]{Peer: t, Key: tn.Key})
		}
	}
	consider(n.Succ)
	consider(n.Pred)
	for _, t := range n.Out {
		consider(t)
	}
	for _, t := range n.In {
		consider(t)
	}
	return out, n.Load(), nil
}

// ForEachAlive calls fn for every alive peer in id order.
func (g *Network) ForEachAlive(fn func(*Node)) {
	for _, n := range g.nodes {
		if n.Alive {
			fn(n)
		}
	}
}

// AliveIDs returns the ids of all alive peers in id order.
func (g *Network) AliveIDs() []NodeID {
	out := make([]NodeID, 0, g.alive)
	for _, n := range g.nodes {
		if n.Alive {
			out = append(out, n.ID)
		}
	}
	return out
}

// CheckInvariants verifies internal consistency (used by tests and the
// simulator's self-checks): in/out lists mirror each other among alive
// peers, caps are respected, no self or duplicate links.
func (g *Network) CheckInvariants() error {
	aliveSeen := 0
	for _, n := range g.nodes {
		if !n.Alive {
			continue
		}
		aliveSeen++
		seen := make(map[NodeID]bool, len(n.Out))
		for _, t := range n.Out {
			if t == n.ID {
				return fmt.Errorf("graph: node %d has a self-link", n.ID)
			}
			if seen[t] {
				return fmt.Errorf("graph: node %d has duplicate link to %d", n.ID, t)
			}
			seen[t] = true
			if !containsID(g.Node(t).In, n.ID) {
				return fmt.Errorf("graph: link %d->%d missing from target's in-list", n.ID, t)
			}
		}
		if len(n.In) > n.MaxIn {
			return fmt.Errorf("graph: node %d exceeded in-cap: %d > %d", n.ID, len(n.In), n.MaxIn)
		}
		for _, s := range n.In {
			sn := g.Node(s)
			if !sn.Alive {
				return fmt.Errorf("graph: node %d has dead source %d in in-list", n.ID, s)
			}
			if !sn.HasOut(n.ID) {
				return fmt.Errorf("graph: in-list entry %d->%d has no matching out-link", s, n.ID)
			}
		}
	}
	if aliveSeen != g.alive {
		return fmt.Errorf("graph: alive counter %d != scan %d", g.alive, aliveSeen)
	}
	return nil
}

func containsID(list []NodeID, id NodeID) bool {
	for _, v := range list {
		if v == id {
			return true
		}
	}
	return false
}
