// Package core implements the Oscar construction — the paper's primary
// contribution: long-range link acquisition over median-based logarithmic
// partitions, honouring per-peer degree budgets.
//
// The long-range link acquiring procedure (§2): "each peer u first chooses
// uniformly at random one logarithmic partition Ai and then within that
// partition uniformly at random one peer v. This peer v will become a
// long-range neighbor of u." Partition borders are sampled medians and the
// uniform in-partition choice is a restricted random walk (package
// sampling). A contacted peer accepts only while below ρmax_in (§3), and
// because the approach is randomized the power-of-two technique
// [Mitzenmacher et al.] balances in-degree load: draw two candidates, link
// the one with the lower relative in-degree load.
//
// The construction is written once, against Substrate. The simulator runs
// it over graph.Network (internal/sim) and the live node over RPCs
// (internal/p2p). They order its steps differently in two places: the
// simulator reproduces the paper's simulation, dropping a peer's links
// before discovery and letting a duplicate draw spend its slot, while the
// live node discovers with its links up and skips such a draw (Wire,
// Relink).
package core

import (
	"context"
	"math/rand"
	"slices"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/partition"
	"github.com/oscar-overlay/oscar/internal/sampling"
)

// Config tunes the Oscar wiring algorithm; the paper harness sets each
// field for one of its ablations.
type Config struct {
	// Samples is the number of walk samples per median estimate (A2).
	Samples int
	// PowerOfTwo enables the two-choices in-degree balancing rule (A1).
	PowerOfTwo bool
	// Oracle replaces sampled medians and sampled in-partition picks with
	// exact global-knowledge versions (A3). Only the simulator has them:
	// it hands them to Relink, and Wire ignores the field.
	Oracle bool
}

// The construction's fixed walk parameters, at the paper's "very low
// sample sizes".
const (
	// SampleSteps is the number of walk moves between two samples of a
	// median estimate.
	SampleSteps = 8
	// PickSteps is the walk length of an in-partition draw.
	PickSteps = 10
	// MaxLevels bounds the partition count: a safety net, since the
	// successor stopping rule ends the recursion at ~log₂ N levels.
	MaxLevels = 48
)

// DefaultConfig returns the configuration of the live node and of the
// paper-reproduction experiments.
func DefaultConfig() Config {
	return Config{Samples: 12, PowerOfTwo: true}
}

// Rand is the node's random stream. The walks of partition discovery draw
// from it, and each candidate draw from the stream Split returns: a stream
// of its own where draws run concurrently, so their schedule never decides
// what they pick.
type Rand interface {
	sampling.Rand
	Split() *rand.Rand
}

// Substrate is one node as the construction sees it: Self is the node,
// Successor its ring successor (Self when alone), MaxOut its out-link
// budget ρmax_out, and LocalNeighbors its own neighbours in rg, read with
// no message. Neighbors and Load (p's relative in-degree load
// InDeg/MaxIn) are one message each; Owner routes to the owner of k and
// reports the messages that took. Release drops the node's long-range
// links and sends each target an unlink once, in parallel, ignoring the
// answers; Link asks p to accept one, which p refuses at its in-degree
// cap. Parallel runs
// fn(0) … fn(k-1), concurrently where the substrate can, and returns once
// every one has.
type Substrate[P comparable] interface {
	sampling.Graph[P]
	Self() P
	Key(p P) keyspace.Key
	LocalNeighbors(rg keyspace.Range) []P
	Successor() P
	MaxOut() int
	Owner(ctx context.Context, k keyspace.Key) (P, int, error)
	Load(ctx context.Context, p P) (float64, error)
	Release(ctx context.Context)
	Link(ctx context.Context, p P) error
	Parallel(k int, fn func(i int))
}

// Draw draws one peer inside rg from rnd and returns it with the messages
// it sent; ok is false when the partition yielded nobody.
type Draw[P comparable] func(ctx context.Context, rnd *rand.Rand, rg keyspace.Range) (p P, msgs int, ok bool)

// WireStats reports one wiring pass.
type WireStats struct {
	// LinksWanted is the node's ρmax_out.
	LinksWanted int
	// LinksMade is how many link slots were filled.
	LinksMade int
	// Levels is the partition count the node discovered (≈ log₂ N).
	Levels int
	// SampleCost counts the messages spent on median estimation.
	SampleCost int
	// PickCost counts the messages spent drawing candidates.
	PickCost int
}

// Add accumulates another pass's stats.
func (s *WireStats) Add(o WireStats) {
	s.LinksWanted += o.LinksWanted
	s.LinksMade += o.LinksMade
	s.Levels += o.Levels
	s.SampleCost += o.SampleCost
	s.PickCost += o.PickCost
}

// Wire (re)builds the node's long-range links the way the live node does
// — both the join-time wiring and the periodic rewiring of §3: Discover
// the partitions, then Relink with walk draws, skipping a draw of a peer
// already linked in the pass. Discovery walks over the current links, so
// it runs before they are released; a rebuild that cannot start (no
// partition border, or ctx done once discovery ends) keeps them and
// returns no links. Otherwise Wire returns the links it made and
// ctx.Err(). The simulator composes the same steps in the paper's order
// instead (sim.WireOscar).
func Wire[P comparable](ctx context.Context, s Substrate[P], cfg Config, rnd Rand) ([]P, WireStats, error) {
	parts, msgs, err := Discover(ctx, s, cfg.Samples, rnd)
	if err != nil {
		return nil, WireStats{LinksWanted: s.MaxOut(), SampleCost: msgs}, err
	}
	out, st, err := Relink(ctx, s, parts, WalkDraw(s), cfg.PowerOfTwo, true, rnd)
	st.SampleCost = msgs
	return out, st, err
}

// Discover estimates the node's partition borders with restricted walks
// (§2). Border m_i is the median of the remaining population
// [uid, m_(i-1)), estimated from samples of one chained walk from the node.
// The recursion stops when the estimate reaches the node's successor —
// the open range (uid, m) then holds no peers — so ~log₂ N levels emerge
// without global knowledge. It returns the partitions, the messages the
// walks sent and ctx.Err().
func Discover[P comparable](ctx context.Context, s Substrate[P], samples int, rnd sampling.Rand) (*partition.Partitions, int, error) {
	self := s.Self()
	p := &partition.Partitions{NodeKey: s.Key(self)}
	succ := s.Successor()
	if succ == self {
		return p, 0, ctx.Err() // alone on the ring: no population to link to
	}
	succKey := s.Key(succ)
	msgs := 0
	for prev := p.NodeKey; len(p.Borders) < MaxLevels; {
		remaining := keyspace.Range{Start: p.NodeKey, End: prev}
		peers, m, err := sampling.SampleChain(ctx, s, rnd, self, s.LocalNeighbors(remaining), remaining, samples, SampleSteps)
		msgs += m
		if err != nil {
			return p, msgs, err
		}
		// The median is of the *other* peers in the range: the node's own
		// key would anchor the estimate at distance zero, which on tiny
		// populations drowns the signal.
		keys := make([]keyspace.Key, 0, len(peers))
		for _, q := range peers {
			if k := s.Key(q); k != p.NodeKey {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			break // the remaining population appears empty
		}
		border := sampling.MedianFrom(p.NodeKey, keys)
		if len(p.Borders) > 0 && !remaining.Contains(border) {
			break // defensive: a stale estimate escaped the range
		}
		p.Borders = append(p.Borders, border)
		prev = border
		if border == succKey {
			break
		}
	}
	// If the recursion stopped short of the successor, close the tiling
	// with it so every peer stays reachable through some partition.
	if n := len(p.Borders); n > 0 && p.Borders[n-1] != succKey &&
		(keyspace.Range{Start: p.NodeKey, End: p.Borders[n-1]}).Contains(succKey) {
		p.Borders = append(p.Borders, succKey)
	}
	return p, msgs, ctx.Err()
}

// Relink releases the node's links and fills its MaxOut link slots from
// parts, one Pick and one link request per slot; a refused slot stays open
// until the next rewire. With skipLinked a draw of a peer linked earlier
// in the pass counts as none, so the other draw of the slot wins (the live
// node). Without it that draw competes like any other, and if it wins,
// Link refuses the duplicate and the slot stays open (the paper's
// construction, which the simulator reproduces). With no partition Relink
// keeps the links. It returns the links made and ctx.Err().
func Relink[P comparable](ctx context.Context, s Substrate[P], parts *partition.Partitions, draw Draw[P], powerOfTwo, skipLinked bool, rnd Rand) ([]P, WireStats, error) {
	st := WireStats{LinksWanted: s.MaxOut(), Levels: parts.Count()}
	if parts.Count() == 0 {
		return nil, st, nil
	}
	s.Release(ctx)
	var out, linked []P
	for slot := 0; slot < st.LinksWanted && ctx.Err() == nil; slot++ {
		if skipLinked {
			linked = out
		}
		cand, msgs, ok := Pick(ctx, s, parts, draw, linked, powerOfTwo, rnd)
		st.PickCost += msgs
		if ok && s.Link(ctx, cand) == nil {
			out = append(out, cand)
		}
	}
	st.LinksMade = len(out)
	return out, st, ctx.Err()
}

// Pick draws a link candidate: a uniformly random partition, then draw's
// peer inside it; a draw of the node itself or of a peer in existing
// counts as none. With powerOfTwo it makes two draws and keeps the one
// with the lower relative in-degree load. The draws, and the load probes
// deciding between them, run in parallel; each draw takes its stream from
// rnd.Split before either starts. It returns the candidate, the messages
// the draws sent and whether any draw yielded one.
func Pick[P comparable](ctx context.Context, s Substrate[P], parts *partition.Partitions, draw Draw[P], existing []P, powerOfTwo bool, rnd Rand) (P, int, bool) {
	k := 1
	if powerOfTwo {
		k = 2
	}
	var rnds [2]*rand.Rand
	for i := range k {
		rnds[i] = rnd.Split()
	}
	var picks [2]P
	var oks [2]bool
	var sent [2]int
	s.Parallel(k, func(i int) {
		p, msgs, ok := draw(ctx, rnds[i], parts.Range(rnds[i].Intn(parts.Count())))
		picks[i], sent[i] = p, msgs
		oks[i] = ok && p != s.Self() && !slices.Contains(existing, p)
	})
	msgs := sent[0] + sent[1]
	switch {
	case !oks[0]:
		return picks[1], msgs, oks[1]
	case !oks[1] || picks[1] == picks[0]:
		return picks[0], msgs, true
	}
	var loads [2]float64
	var errs [2]error
	s.Parallel(2, func(i int) {
		loads[i], errs[i] = s.Load(ctx, picks[i])
	})
	if errs[1] == nil && (errs[0] != nil || loads[1] < loads[0]) {
		return picks[1], msgs, true
	}
	return picks[0], msgs, true
}

// WalkDraw is the deployable draw: route to the partition's lower border
// and walk PickSteps steps from the peer owning it.
func WalkDraw[P comparable](s Substrate[P]) Draw[P] {
	return func(ctx context.Context, rnd *rand.Rand, rg keyspace.Range) (P, int, bool) {
		entry, msgs, err := s.Owner(ctx, rg.Start)
		if err != nil || !rg.Contains(s.Key(entry)) {
			return entry, msgs, false
		}
		cand, m, err := sampling.Walk(ctx, s, rnd, entry, rg, PickSteps)
		return cand, msgs + m, err == nil
	}
}
