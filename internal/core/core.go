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
// the one with the lower relative in-degree load. The loads come with the
// neighbour lists the walks fetched, so comparing them sends nothing, and
// a slot the preferred candidate refuses falls back to the other (Relink).
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

// Rand is the pass's random stream. The walks of partition discovery draw
// from it, and each candidate draw from the stream Split returns: a stream
// of its own where draws run concurrently, so their schedule never decides
// what they pick. Pick splits twice per slot, so a split must be cheap:
// the live node seeds a one-word SplitMix64 generator, and the simulator,
// whose draws run one after the other, hands out its own stream.
type Rand interface {
	sampling.Rand
	Split() *rand.Rand
}

// Substrate is one node as the construction sees it: Self is the node,
// Successor its ring successor (Self when alone), MaxOut its out-link
// budget ρmax_out, and LocalNeighbors its own neighbours, read with no
// message. Neighbors (p's neighbours and load, which the pass's View asks
// once per peer) is one message. Release drops the node's long-range links,
// sends each target an unlink in parallel, ignoring the answers, and
// returns the targets; Link asks p to accept one, which p refuses at its
// in-degree cap. Parallel runs fn(0) … fn(k-1), concurrently where the
// substrate can, and returns once every one has. The construction never
// routes: every walk starts at the node or at a border peer Discover
// returned.
type Substrate[P comparable] interface {
	sampling.Graph[P]
	Self() P
	LocalNeighbors() []sampling.Neighbor[P]
	Successor() P
	MaxOut() int
	Release(ctx context.Context) []P
	Link(ctx context.Context, p P) error
	Parallel(k int, fn func(i int))
}

// NewView opens one pass's neighbour view over s (sampling.View): every
// walk of the pass asks a peer for its neighbours at most once, and the
// node's own come from LocalNeighbors.
func NewView[P comparable](s Substrate[P]) *sampling.View[P] {
	return sampling.NewView[P](s, s.Self(), s.LocalNeighbors())
}

// Draw draws one peer inside partition i of the pass from rnd and returns
// it with its load and the messages it sent; ok is false when the
// partition yielded nobody.
type Draw[P comparable] func(ctx context.Context, rnd *rand.Rand, i int) (p P, load sampling.Load, msgs int, ok bool)

// Candidate is a drawn peer and its load as the pass sees it.
type Candidate[P comparable] struct {
	Peer P
	Load sampling.Load
}

// WireStats reports one wiring pass.
type WireStats struct {
	// LinksWanted is the node's ρmax_out.
	LinksWanted int
	// LinksMade is how many link slots were filled.
	LinksMade int
	// Levels is the partition count the node discovered (≈ log₂ N).
	Levels int
	// SampleCost counts the messages median estimation sent: one per
	// neighbour list the pass's view fetched for it.
	SampleCost int
	// PickCost counts the messages drawing candidates sent: the neighbour
	// lists the discovery walks had not fetched.
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
// already linked in the pass. Every walk of the pass runs over one View.
// Discovery walks over the current links, so it runs before they are
// released; a rebuild that cannot start (no partition border, or ctx done
// once discovery ends) keeps them and returns no links. Otherwise Wire
// returns the links it made and ctx.Err(). The simulator composes the same
// steps in the paper's order instead (sim.WireOscar).
func Wire[P comparable](ctx context.Context, s Substrate[P], cfg Config, rnd Rand) ([]P, WireStats, error) {
	v := NewView(s)
	parts, starts, msgs, err := Discover(ctx, s, v, cfg.Samples, rnd)
	if err != nil {
		return nil, WireStats{LinksWanted: s.MaxOut(), SampleCost: msgs}, err
	}
	out, st, err := Relink(ctx, s, parts, WalkDraw(v, parts, starts), v, cfg.PowerOfTwo, true, rnd)
	st.SampleCost = msgs
	return out, st, err
}

// Discover estimates the node's partition borders with restricted walks
// (§2) over v. Border m_i is the median of the remaining population
// [uid, m_(i-1)), estimated from samples of one chained walk from the node.
// The recursion stops when the estimate reaches the node's successor —
// the open range (uid, m) then holds no peers — so ~log₂ N levels emerge
// without global knowledge. It returns the partitions, the border peers
// (starts[i] is the peer whose key is Borders[i]: a sample the walks stood
// on, so v holds its list, or the closing successor), the messages the
// walks sent and ctx.Err().
func Discover[P comparable](ctx context.Context, s Substrate[P], v *sampling.View[P], samples int, rnd sampling.Rand) (*partition.Partitions, []P, int, error) {
	self := s.Self()
	p := &partition.Partitions{NodeKey: s.Key(self)}
	succ := s.Successor()
	if succ == self {
		return p, nil, 0, ctx.Err() // alone on the ring: no population to link to
	}
	succKey := s.Key(succ)
	var starts []P
	msgs := 0
	for prev := p.NodeKey; len(p.Borders) < MaxLevels; {
		remaining := keyspace.Range{Start: p.NodeKey, End: prev}
		peers, m, err := sampling.SampleChain(ctx, v, rnd, self, remaining, samples, SampleSteps)
		msgs += m
		if err != nil {
			return p, starts, msgs, err
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
		starts = append(starts, peers[slices.IndexFunc(peers, func(q P) bool { return s.Key(q) == border })])
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
		starts = append(starts, succ)
	}
	return p, starts, msgs, ctx.Err()
}

// Relink releases the node's links and fills its MaxOut link slots from
// parts, one Pick per slot, asking its preferred candidate first; a slot
// no candidate takes stays open until the next rewire. With skipLinked a
// draw of a peer linked earlier in the pass counts as none, so the other
// draw of the slot wins (the live node). Without it that draw competes
// like any other, and if it wins, Link refuses the duplicate and the slot
// stays open (the paper's construction, which the simulator reproduces).
// Any other refusal hands the slot to the other candidate unless its load
// shows it full, as exact loads then always do: only loads gone stale
// while other peers rewire cost a second link request. Relink moves the
// loads v holds by its own unlinks and links. With no partition it keeps
// the links. It returns the links made and ctx.Err().
func Relink[P comparable](ctx context.Context, s Substrate[P], parts *partition.Partitions, draw Draw[P], v *sampling.View[P], powerOfTwo, skipLinked bool, rnd Rand) ([]P, WireStats, error) {
	st := WireStats{LinksWanted: s.MaxOut(), Levels: parts.Count()}
	if parts.Count() == 0 {
		return nil, st, nil
	}
	for _, p := range s.Release(ctx) {
		v.Moved(p, -1)
	}
	var out, linked []P
	for slot := 0; slot < st.LinksWanted && ctx.Err() == nil; slot++ {
		if skipLinked {
			linked = out
		}
		cands, msgs := Pick(ctx, s, parts, draw, linked, powerOfTwo, rnd)
		st.PickCost += msgs
		for i, c := range cands {
			if i > 0 && (slices.Contains(out, cands[0].Peer) || c.Load.In >= c.Load.Max) {
				break // a duplicate spends its slot, and a full peer refuses
			}
			if s.Link(ctx, c.Peer) == nil {
				out = append(out, c.Peer)
				v.Moved(c.Peer, 1)
				break
			}
		}
	}
	st.LinksMade = len(out)
	return out, st, ctx.Err()
}

// Pick draws a slot's link candidates: a uniformly random partition, then
// draw's peer inside it; a draw of the node itself or of a peer in
// existing counts as none. With powerOfTwo it makes two draws, in
// parallel, each from a stream split off rnd before either starts. It
// returns the distinct candidates drawn, the one with the lower relative
// in-degree load first (the first draw on a tie), and the messages the
// draws sent.
func Pick[P comparable](ctx context.Context, s Substrate[P], parts *partition.Partitions, draw Draw[P], existing []P, powerOfTwo bool, rnd Rand) ([]Candidate[P], int) {
	k := 1
	if powerOfTwo {
		k = 2
	}
	var rnds [2]*rand.Rand
	for i := range k {
		rnds[i] = rnd.Split()
	}
	var picks [2]Candidate[P]
	var oks [2]bool
	var sent [2]int
	s.Parallel(k, func(i int) {
		p, load, msgs, ok := draw(ctx, rnds[i], rnds[i].Intn(parts.Count()))
		picks[i], sent[i] = Candidate[P]{p, load}, msgs
		oks[i] = ok && p != s.Self() && !slices.Contains(existing, p)
	})
	msgs := sent[0] + sent[1]
	switch {
	case !oks[0] && !oks[1]:
		return nil, msgs
	case !oks[0]:
		return picks[1:], msgs
	case !oks[1] || picks[1].Peer == picks[0].Peer:
		return picks[:1], msgs
	case picks[1].Load.Rel() < picks[0].Load.Rel():
		picks[0], picks[1] = picks[1], picks[0]
	}
	return picks[:], msgs
}

// WalkDraw is the deployable draw: walk PickSteps steps over v inside
// partition i of parts from starts[i], its border peer (Discover), and
// read the load of the peer it ends on from v, which fetched that peer's
// list. v holds the start's list unless it is the closing successor, and
// a start that cannot be fetched yields none. The draws share v, so the two
// parallel draws of a Pick that step onto one peer fetch its list once,
// and the count of messages stays the same whatever their schedule.
func WalkDraw[P comparable](v *sampling.View[P], parts *partition.Partitions, starts []P) Draw[P] {
	return func(ctx context.Context, rnd *rand.Rand, i int) (P, sampling.Load, int, bool) {
		cand, msgs, err := sampling.Walk(ctx, v, rnd, starts[i], parts.Range(i), PickSteps)
		return cand, v.Load(cand), msgs, err == nil
	}
}
