package routing_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/oscar-overlay/oscar/internal/graph"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/ring"
	"github.com/oscar-overlay/oscar/internal/routing"
	"github.com/oscar-overlay/oscar/internal/sim"
	"github.com/oscar-overlay/oscar/internal/smallworld"
)

type result = routing.Result[graph.NodeID]

var disciplines = []routing.Discipline{routing.Clockwise, routing.Circular}

// buildRing creates n evenly spaced peers; withLinks adds harmonic long
// links via the smallworld reference so greedy has shortcuts.
func buildRing(t *testing.T, n int, withLinks bool, seed int64) (*graph.Network, *ring.Ring) {
	t.Helper()
	g := graph.New()
	r := ring.New(g)
	step := keyspace.MaxKey / keyspace.Key(n)
	for i := 0; i < n; i++ {
		node := g.Add(keyspace.Key(i)*step, 16, 16)
		r.Insert(node.ID)
	}
	if withLinks {
		smallworld.WireAll(g, r, 2, rand.New(rand.NewSource(seed)))
	}
	return g, r
}

// validate checks that a lookup's path starts somewhere and that a found
// lookup ends at the owner it reports.
func validate(res result) error {
	if len(res.Path) == 0 {
		return fmt.Errorf("routing: empty path")
	}
	if res.Found && res.Path[len(res.Path)-1] != res.Owner {
		return fmt.Errorf("routing: found lookup does not end at owner")
	}
	return nil
}

// TestRank is the next-hop ranking, one view and key per row, under both
// disciplines. Peers are their own keys.
func TestRank(t *testing.T) {
	type want struct {
		next keyspace.Key
		ans  routing.Answer
	}
	owned := func(self keyspace.Key) want { return want{self, routing.Owned} }
	hop := func(next keyspace.Key) want { return want{next, routing.Hop} }
	noRoute := want{0, routing.NoRoute}
	type view = routing.View[keyspace.Key]
	for _, tc := range []struct {
		name      string
		v         view
		k         keyspace.Key
		exclude   []keyspace.Key
		clockwise want
		circular  want
	}{
		{"lone node", view{Self: 10}, 99, nil, owned(10), owned(10)},
		{"lone node listing itself", view{Self: 10, Pred: 10, Succs: []keyspace.Key{10}}, 99, nil, owned(10), owned(10)},
		{"key in (pred, self]", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30}}, 15, nil, owned(20), owned(20)},
		{"key at self", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30}}, 20, nil, owned(20), owned(20)},
		{"successor owns", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30, 40}, Out: []keyspace.Key{29}}, 25, nil, hop(30), hop(30)},
		{"owning successor excluded", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30, 40}, Out: []keyspace.Key{29}}, 25, []keyspace.Key{30}, noRoute, noRoute},
		{"list tail beats out-link", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30, 60}, Out: []keyspace.Key{50}}, 65, nil, hop(60), hop(60)},
		{"excluded successor, tail next", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30, 40}}, 70, []keyspace.Key{30}, hop(40), hop(40)},
		{"overshooting link", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30}, Out: []keyspace.Key{90}}, 70, nil, hop(30), hop(90)},
		{"in-link behind", view{Self: 50, Pred: 40, Succs: []keyspace.Key{60}, In: []keyspace.Key{15}}, 10, nil, hop(60), hop(15)},
		{"predecessor behind", view{Self: 50, Pred: 40, Succs: []keyspace.Key{60}}, 30, nil, hop(60), hop(40)},
		{"successor regresses", view{Self: 50, Pred: 40, Succs: []keyspace.Key{60}}, 30, []keyspace.Key{40}, hop(60), hop(60)},
		{"strictly improve", view{Self: 50, Pred: 40, Succs: []keyspace.Key{60, 70}, In: []keyspace.Key{10}}, 30, []keyspace.Key{40, 60}, hop(70), noRoute},
		{"everything excluded", view{Self: 20, Pred: 10, Succs: []keyspace.Key{30}, Out: []keyspace.Key{50}}, 70, []keyspace.Key{30, 50}, noRoute, noRoute},
	} {
		for _, disc := range disciplines {
			w := tc.clockwise
			if disc == routing.Circular {
				w = tc.circular
			}
			next, ans := routing.Rank(tc.v, func(p keyspace.Key) keyspace.Key { return p }, tc.k,
				func(p keyspace.Key) bool { return slices.Contains(tc.exclude, p) }, disc)
			if next != w.next || ans != w.ans {
				t.Errorf("%s, discipline %d: got (%d, %d), want (%d, %d)", tc.name, disc, next, ans, w.next, w.ans)
			}
		}
	}
}

// TestGreedyReachesOwner: on a healthy network both disciplines end every
// lookup at the key's owner with neither probes nor backtracks.
func TestGreedyReachesOwner(t *testing.T) {
	g, r := buildRing(t, 256, true, 1)
	rnd := rand.New(rand.NewSource(2))
	for _, disc := range disciplines {
		for trial := 0; trial < 500; trial++ {
			from := r.RandomAlive(rnd)
			target := keyspace.Key(rnd.Uint64())
			res := sim.Route(g, from, target, disc)
			if !res.Found {
				t.Fatalf("discipline %d: lookup failed from %d to %v", disc, from, target)
			}
			if res.Owner != r.OwnerOf(target) {
				t.Fatalf("discipline %d: owner %d does not own target %v", disc, res.Owner, target)
			}
			if res.Probes != 0 || res.Backtracks != 0 {
				t.Fatalf("discipline %d: healthy network produced probes=%d backtracks=%d", disc, res.Probes, res.Backtracks)
			}
			if err := validate(res); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGreedySelfLookup(t *testing.T) {
	g, r := buildRing(t, 64, true, 3)
	// Looking up your own key terminates with zero hops.
	id := r.OwnerOf(0)
	for _, disc := range disciplines {
		res := sim.Route(g, id, g.Node(id).Key, disc)
		if !res.Found || res.Hops != 0 || res.Owner != id {
			t.Errorf("discipline %d: self lookup: %+v", disc, res)
		}
	}
}

func TestGreedyRingOnlyFollowsSuccessors(t *testing.T) {
	g, r := buildRing(t, 32, false, 0)
	// Without long links, cost from peer 0 to the key of peer 20 is 20 hops.
	from := r.OwnerOf(0)
	target := g.Node(r.OwnerOf(keyspace.MaxKey / 32 * 20)).Key
	res := sim.Route(g, from, target, routing.Clockwise)
	if !res.Found {
		t.Fatal("ring-only lookup failed")
	}
	if res.Hops != 20 {
		t.Errorf("ring-only hops = %d, want 20", res.Hops)
	}
}

func TestGreedyShortcutsHelp(t *testing.T) {
	gPlain, _ := buildRing(t, 512, false, 4)
	gLinked, _ := buildRing(t, 512, true, 4)
	rnd := rand.New(rand.NewSource(5))
	var plain, linked int
	for trial := 0; trial < 200; trial++ {
		target := keyspace.Key(rnd.Uint64())
		from := graph.NodeID(rnd.Intn(512))
		plain += sim.Route(gPlain, from, target, routing.Clockwise).Hops
		linked += sim.Route(gLinked, from, target, routing.Clockwise).Hops
	}
	if linked*4 > plain {
		t.Errorf("long links should cut cost ≥4x: plain=%d linked=%d", plain, linked)
	}
}

func TestGreedyNeverOvershootsExceptFinalHop(t *testing.T) {
	g, r := buildRing(t, 256, true, 6)
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		from := r.RandomAlive(rnd)
		target := keyspace.Key(rnd.Uint64())
		res := sim.Route(g, from, target, routing.Clockwise)
		for i := 1; i < len(res.Path); i++ {
			prev := g.Node(res.Path[i-1])
			cur := g.Node(res.Path[i])
			moved := prev.Key.Distance(cur.Key)
			toTarget := prev.Key.Distance(target)
			if moved > toTarget && res.Path[i] != res.Owner {
				t.Fatalf("hop %d overshot mid-route", i)
			}
		}
	}
}

// TestGreedyBacktrackSurvivesChurn: with crashed peers, the ring
// restitched and long links stale, every lookup still reaches the owner,
// and stale links cost probes.
func TestGreedyBacktrackSurvivesChurn(t *testing.T) {
	for _, frac := range []float64{0.10, 0.33} {
		g, r := buildRing(t, 600, true, 10)
		rnd := rand.New(rand.NewSource(11))
		// Kill peers; ring restitches, long links go stale.
		victims := int(frac * 600)
		for i := 0; i < victims; i++ {
			r.Kill(r.RandomAlive(rnd))
		}
		var totalCost, totalProbes int
		for trial := 0; trial < 300; trial++ {
			from := r.RandomAlive(rnd)
			target := g.Node(r.RandomAlive(rnd)).Key
			res := sim.Route(g, from, target, routing.Clockwise)
			if !res.Found {
				t.Fatalf("lookup failed at %.0f%% churn", frac*100)
			}
			if res.Owner != r.OwnerOf(target) || res.Path[len(res.Path)-1] != res.Owner {
				t.Fatal("path does not end at owner")
			}
			totalCost += res.Cost()
			totalProbes += res.Probes
		}
		if totalProbes == 0 {
			t.Errorf("at %.0f%% churn no dead links were probed — stale-link model broken", frac*100)
		}
		t.Logf("churn %.0f%%: avg cost %.2f, avg probes %.2f", frac*100,
			float64(totalCost)/300, float64(totalProbes)/300)
	}
}

func TestGreedyBacktrackNeverVisitsDead(t *testing.T) {
	g, r := buildRing(t, 300, true, 12)
	rnd := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		r.Kill(r.RandomAlive(rnd))
	}
	for trial := 0; trial < 100; trial++ {
		from := r.RandomAlive(rnd)
		target := g.Node(r.RandomAlive(rnd)).Key
		res := sim.Route(g, from, target, routing.Clockwise)
		for _, id := range res.Path {
			if !g.Node(id).Alive {
				t.Fatal("query visited a dead peer")
			}
		}
	}
}

// TestGreedyBacktrackPopsOnStalePointers exercises the backtrack
// deterministically: the ring is *not yet* stabilised, so one peer's
// successor pointer still references a corpse, producing a genuine dead end
// that the query must back out of. (With instant stabilisation — the
// default churn model — dead ends cannot occur; see the circular churn
// test.)
func TestGreedyBacktrackPopsOnStalePointers(t *testing.T) {
	g := graph.New()
	r := ring.New(g)
	// Alive peers on the ring: A=10, B=20, L=40, E=50.
	a := g.Add(10, 8, 8)
	b := g.Add(20, 8, 8)
	l := g.Add(40, 8, 8)
	e := g.Add(50, 8, 8)
	for _, n := range []graph.NodeID{a.ID, b.ID, l.ID, e.ID} {
		r.Insert(n)
	}
	// The corpse never joins the ring index (it died earlier) but L's
	// successor pointer is still stale and references it.
	c := g.Add(45, 8, 8)
	g.Kill(c.ID)
	l.Succ = c.ID
	// A prefers its long link to L (progress 30) over its successor B
	// (progress 10); B holds the only working route to E.
	if err := g.AddLink(a.ID, l.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(b.ID, e.ID); err != nil {
		t.Fatal(err)
	}
	// Route A → key 50 (owner E): greedy goes A→L, probes L's dead
	// successor, which owns key 50 from L's view, so L has no route; the
	// query backtracks to A and proceeds A→B→E.
	res := sim.Route(g, a.ID, 50, routing.Clockwise)
	if !res.Found || res.Owner != e.ID {
		t.Fatalf("lookup failed: %+v", res)
	}
	if want := []graph.NodeID{a.ID, l.ID, a.ID, b.ID, e.ID}; !slices.Equal(res.Path, want) {
		t.Errorf("path %v, want %v", res.Path, want)
	}
	if res.Hops != 3 || res.Probes != 1 || res.Backtracks != 1 {
		t.Errorf("hops/probes/backtracks = %d/%d/%d, want 3/1/1", res.Hops, res.Probes, res.Backtracks)
	}
}

// script is a substrate whose peers answer from a table: each names the
// first of its hops the walk does not exclude, owner owns the key, dead
// peers answer nothing, and asking a peer of kills kills the peers listed.
type script struct {
	hops  map[int][]int
	owner int
	kills map[int][]int
	dead  map[int]bool
	fans  [][]int // the peers of every liveness probe, in order
	last  []int   // the exclude list of the last answered ask
}

func (s *script) Ask(p int, _ keyspace.Key, exclude []int) (int, routing.Answer, error) {
	if s.dead[p] {
		return 0, routing.Silent, nil
	}
	s.last = slices.Clone(exclude)
	for _, q := range s.kills[p] {
		s.dead[q] = true
	}
	if p == s.owner {
		return p, routing.Owned, nil
	}
	for _, q := range s.hops[p] {
		if !slices.Contains(exclude, q) {
			return q, routing.Hop, nil
		}
	}
	return 0, routing.NoRoute, nil
}

func (s *script) Alive(ps []int) ([]bool, error) {
	s.fans = append(s.fans, slices.Clone(ps))
	alive := make([]bool, len(ps))
	for i, p := range ps {
		alive[i] = !s.dead[p]
	}
	return alive, nil
}

// TestWalkBacktrack drives the walk over scripted peers; 8 owns the key.
func TestWalkBacktrack(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		s                        *script
		found                    bool
		path, fans               []int // fans: the one liveness probe, if any
		hops, probes, backtracks int
	}{{
		// 3 is dead: the walk excludes it and resumes at 2, which named
		// it, without a move; 2 routes around it.
		name:  "dead hop",
		s:     &script{hops: map[int][]int{1: {2}, 2: {3, 8}}, owner: 8, dead: map[int]bool{3: true}},
		found: true, path: []int{1, 2, 8}, fans: []int{1, 2}, hops: 2, probes: 1,
	}, {
		// 6 has no route, and 4 and 5 died after naming their hops: one
		// probe of the stack's top four finds them dead, and the walk
		// resumes at the deepest live entry, 3, which routes around them.
		name: "dead end",
		s: &script{hops: map[int][]int{1: {2}, 2: {3}, 3: {4, 8}, 4: {5}, 5: {6}}, owner: 8,
			kills: map[int][]int{6: {4, 5}}, dead: map[int]bool{}},
		found: true, path: []int{1, 2, 3, 4, 5, 6, 3, 8}, fans: []int{2, 3, 4, 5}, hops: 6, probes: 2, backtracks: 1,
	}, {
		// 3 has no route and nobody behind it has another: the walk
		// backtracks to the source and fails there.
		name:  "no route",
		s:     &script{hops: map[int][]int{1: {2}, 2: {3}}, owner: 8, dead: map[int]bool{}},
		found: false, path: []int{1, 2, 3, 2, 1}, fans: []int{1, 2}, hops: 2, backtracks: 2,
	}} {
		res, err := routing.Walk[int](tc.s, 1, 0, 100)
		if err != nil || res.Found != tc.found || !slices.Equal(res.Path, tc.path) ||
			res.Hops != tc.hops || res.Probes != tc.probes || res.Backtracks != tc.backtracks {
			t.Errorf("%s: got %+v, %v; want found=%v path=%v hops/probes/backtracks=%d/%d/%d",
				tc.name, res, err, tc.found, tc.path, tc.hops, tc.probes, tc.backtracks)
		}
		if len(tc.s.fans) == 0 || !slices.Equal(tc.s.fans[0], tc.fans) {
			t.Errorf("%s: liveness probes %v, want first %v", tc.name, tc.s.fans, tc.fans)
		}
	}
	// Peers that send the query round in a circle exhaust the budget.
	s := &script{hops: map[int][]int{1: {2}, 2: {1}}, owner: 8, dead: map[int]bool{}}
	if res, err := routing.Walk[int](s, 1, 0, 10); !errors.Is(err, routing.ErrBudget) || res.Found {
		t.Errorf("circling walk: %+v, %v; want ErrBudget", res, err)
	}
}

func TestCostDecomposition(t *testing.T) {
	res := result{Hops: 5, Probes: 3, Backtracks: 2}
	if res.Cost() != 10 {
		t.Errorf("Cost = %d", res.Cost())
	}
}

func TestValidate(t *testing.T) {
	g, r := buildRing(t, 16, false, 0)
	if err := validate(sim.Route(g, r.OwnerOf(0), 12345, routing.Clockwise)); err != nil {
		t.Error(err)
	}
	if err := validate(result{}); err == nil {
		t.Error("empty path must be invalid")
	}
	bad := result{Found: true, Owner: 3, Path: []graph.NodeID{1, 2}}
	if err := validate(bad); err == nil {
		t.Error("found-but-wrong-endpoint must be invalid")
	}
}

// TestBidirectionalNotWorseThanRingOnly: on a plain ring, circular greedy
// takes the shorter arc, so it should average at most ~n/4 hops vs
// clockwise's ~n/2.
func TestBidirectionalNotWorseThanRingOnly(t *testing.T) {
	g, r := buildRing(t, 200, false, 23)
	rnd := rand.New(rand.NewSource(24))
	var cw, bidir int
	for trial := 0; trial < 200; trial++ {
		from := r.RandomAlive(rnd)
		target := keyspace.Key(rnd.Uint64())
		cw += sim.Route(g, from, target, routing.Clockwise).Hops
		bidir += sim.Route(g, from, target, routing.Circular).Hops
	}
	if bidir >= cw {
		t.Errorf("bidirectional (%d hops) should beat clockwise (%d) on a plain ring", bidir, cw)
	}
}

func TestBidirectionalSurvivesChurnWithBacktracking(t *testing.T) {
	// Sparse network (few links per peer) + heavy churn: many stale links.
	g := graph.New()
	r := ring.New(g)
	step := keyspace.MaxKey / 400
	for i := 0; i < 400; i++ {
		node := g.Add(keyspace.Key(i)*step, 4, 4)
		r.Insert(node.ID)
	}
	rnd := rand.New(rand.NewSource(26))
	smallworld.WireAll(g, r, 2, rnd)
	for i := 0; i < 160; i++ { // 40% churn
		r.Kill(r.RandomAlive(rnd))
	}
	var probes, backtracks int
	for trial := 0; trial < 500; trial++ {
		from := r.RandomAlive(rnd)
		target := g.Node(r.RandomAlive(rnd)).Key
		res := sim.Route(g, from, target, routing.Circular)
		if !res.Found || res.Owner != r.OwnerOf(target) {
			t.Fatal("lookup failed under churn")
		}
		for _, id := range res.Path {
			if !g.Node(id).Alive {
				t.Fatal("visited a dead peer")
			}
		}
		probes += res.Probes
		backtracks += res.Backtracks
	}
	if probes == 0 {
		t.Error("no probes under churn")
	}
	// With an instantly self-stabilised ring, dead ends are impossible:
	// the successor or the predecessor is alive and strictly closer to the
	// key, so backtracks stay 0 here. The backtrack itself is exercised
	// deterministically in TestGreedyBacktrackPopsOnStalePointers, which
	// models a not-yet-stabilised ring, and in TestWalkBacktrack.
	if backtracks != 0 {
		t.Errorf("%d backtracks on a stitched ring", backtracks)
	}
	t.Logf("500 churned lookups: %d probes, %d backtracks", probes, backtracks)
}

func TestBidirectionalTinyRing(t *testing.T) {
	g, r := buildRing(t, 2, false, 28)
	from := r.OwnerOf(0)
	other := g.Node(from).Succ
	res := sim.Route(g, from, g.Node(other).Key, routing.Circular)
	if !res.Found || res.Owner != other {
		t.Errorf("pair lookup: %+v", res)
	}
}
