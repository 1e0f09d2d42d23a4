package sampling_test

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/sampling"
)

// multigraph is an undirected multigraph over peers 0..n-1: adj[p] lists
// p's neighbours with multiplicity, and both ends of an edge count it
// equally often. It counts the fetches of each peer's list.
type multigraph struct {
	keys []keyspace.Key
	adj  [][]int

	mu    sync.Mutex
	asked map[int]int
}

// randomMultigraph builds n peers at random keys, a ring through them in
// key order, and edges random extra edges, duplicates and self-free.
func randomMultigraph(rnd *rand.Rand, n, edges int) *multigraph {
	g := &multigraph{keys: make([]keyspace.Key, n), adj: make([][]int, n), asked: map[int]int{}}
	for i := range g.keys {
		g.keys[i] = keyspace.Key(rnd.Uint64())
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(g.keys[a], g.keys[b]) })
	link := func(a, b int) {
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
	}
	for i := range order {
		link(order[i], order[(i+1)%n])
	}
	for e := 0; e < edges; e++ {
		a, b := rnd.Intn(n), rnd.Intn(n)
		if a != b {
			link(a, b)
			if rnd.Intn(4) == 0 {
				link(a, b) // a parallel edge
			}
		}
	}
	return g
}

func (g *multigraph) Key(p int) keyspace.Key { return g.keys[p] }

// Neighbors answers p's list and a load of p in-links under a cap of 100.
func (g *multigraph) Neighbors(_ context.Context, p int) ([]sampling.Neighbor[int], sampling.Load, error) {
	g.mu.Lock()
	g.asked[p]++
	g.mu.Unlock()
	return g.list(p), sampling.Load{In: p, Max: 100}, nil
}

// list is p's neighbour list, as Neighbors answers it.
func (g *multigraph) list(p int) []sampling.Neighbor[int] {
	out := make([]sampling.Neighbor[int], len(g.adj[p]))
	for i, q := range g.adj[p] {
		out[i] = sampling.Neighbor[int]{Peer: q, Key: g.keys[q]}
	}
	return out
}

// inRange is the reference filter: p's neighbours in rg, in list order.
func (g *multigraph) inRange(p int, rg keyspace.Range) []int {
	var out []int
	for _, q := range g.adj[p] {
		if rg.Contains(g.keys[q]) {
			out = append(out, q)
		}
	}
	return out
}

// nestedRanges returns the ranges of a discovery from u: the full circle,
// then ranges [key(u), m) whose far border m closes in on u.
func nestedRanges(rnd *rand.Rand, g *multigraph, u int) []keyspace.Range {
	rgs := []keyspace.Range{keyspace.FullRange()}
	k, size := g.keys[u], uint64(keyspace.MaxKey)
	for size > 1<<40 {
		size = uint64(float64(size) * (0.3 + 0.5*rnd.Float64()))
		rgs = append(rgs, keyspace.Range{Start: k, End: k + keyspace.Key(size)})
	}
	return rgs
}

// refWalker is the walk without a view: every step asks for the in-range
// list of the peer it proposes, as the walk did before views.
type refWalker struct {
	g    *multigraph
	rg   keyspace.Range
	cur  int
	nbrs []int
}

func (w *refWalker) step(rnd sampling.Rand) {
	if rnd.Float64() < 1.0/3 || len(w.nbrs) == 0 {
		return
	}
	next := w.nbrs[rnd.Intn(len(w.nbrs))]
	nn := w.g.inRange(next, w.rg)
	if len(nn) == 0 {
		return
	}
	if dv, du := len(w.nbrs), len(nn); du <= dv || rnd.Float64() < float64(dv)/float64(du) {
		w.cur, w.nbrs = next, nn
	}
}

// TestViewMatchesFilter: on random multigraphs, over a discovery's nested
// ranges and the partitions between them, the view's in-range list of
// every peer equals the reference filter, whichever ranges asked for it
// before, and a Walk or SampleChain over one view returns what the
// reference walk does with the same seed.
func TestViewMatchesFilter(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomMultigraph(rnd, 20+rnd.Intn(60), rnd.Intn(200))
		u := rnd.Intn(len(g.keys))
		v := sampling.NewView[int](g, u, g.list(u))
		rgs := nestedRanges(rnd, g, u)
		checks := slices.Clone(rgs)
		for i := 1; i < len(rgs); i++ {
			far := g.keys[u] // the full circle's far border is u itself
			if i > 1 {
				far = rgs[i-1].End
			}
			checks = append(checks, keyspace.Range{Start: rgs[i].End, End: far})
		}
		// Ask in a random order, so that a narrow range often meets a peer
		// before a wider one does.
		rnd.Shuffle(len(checks), func(i, j int) { checks[i], checks[j] = checks[j], checks[i] })
		var buf []int
		for _, rg := range checks {
			for p := range g.keys {
				got, _, err := v.Neighbors(bg, p, rg, buf)
				buf = got
				if !rg.Contains(g.keys[p]) {
					if !errors.Is(err, sampling.ErrOutOfRange) {
						t.Fatalf("trial %d: peer %d outside %v: err = %v", trial, p, rg, err)
					}
					continue
				}
				if want := g.inRange(p, rg); err != nil || !slices.Equal(got, want) {
					t.Fatalf("trial %d: peer %d in %v: view %v (%v), filter %v", trial, p, rg, got, err, want)
				}
			}
		}
		// One view for every walk, the narrowest range first.
		walked := sampling.NewView[int](g, u, g.list(u))
		for i := len(rgs) - 1; i >= 0; i-- {
			rg, seed := rgs[i], int64(trial*100+i)
			samples, _, err := sampling.SampleChain(bg, walked, rand.New(rand.NewSource(seed)), u, rg, 12, 8)
			if err != nil {
				t.Fatal(err)
			}
			ref := refWalker{g: g, rg: rg, cur: u, nbrs: g.inRange(u, rg)}
			refRnd := rand.New(rand.NewSource(seed))
			for j := range samples {
				for range 8 {
					ref.step(refRnd)
				}
				if samples[j] != ref.cur {
					t.Fatalf("trial %d range %d: sample %d is %d through the view, %d without", trial, i, j, samples[j], ref.cur)
				}
			}
			// A walk from a sample, over the view the chain filled.
			start := samples[len(samples)-1]
			end, _, err := sampling.Walk(bg, walked, rand.New(rand.NewSource(seed+1)), start, rg, 10)
			if err != nil {
				t.Fatal(err)
			}
			ref = refWalker{g: g, rg: rg, cur: start, nbrs: g.inRange(start, rg)}
			refRnd = rand.New(rand.NewSource(seed + 1))
			for range 10 {
				ref.step(refRnd)
			}
			if end != ref.cur {
				t.Fatalf("trial %d range %d: walk ends at %d through the view, %d without", trial, i, end, ref.cur)
			}
		}
	}
}

// TestViewSendsOncePerPeer: a pass's walks over nested ranges ask each
// peer once, the node itself never, and report exactly the fetches as
// messages.
func TestViewSendsOncePerPeer(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	g := randomMultigraph(rnd, 80, 160)
	u := 0
	v := sampling.NewView[int](g, u, g.list(u))
	msgs := 0
	for _, rg := range nestedRanges(rnd, g, u) {
		_, m, err := sampling.SampleChain(bg, v, rnd, u, rg, 12, 8)
		if err != nil {
			t.Fatal(err)
		}
		msgs += m
	}
	if g.asked[u] != 0 {
		t.Errorf("the node fetched its own list %d times", g.asked[u])
	}
	fetched := 0
	for p, c := range g.asked {
		if c != 1 {
			t.Errorf("peer %d asked %d times", p, c)
		}
		fetched += c
	}
	if msgs != fetched || fetched == 0 {
		t.Errorf("walks report %d messages for %d fetches", msgs, fetched)
	}
}

// flakyGraph fails the fetches of the peers in fail until they are
// deleted from it, after waiting for release when gate is set.
type flakyGraph struct {
	*multigraph
	fail map[int]bool
	gate chan struct{}
}

var errUnreachable = errors.New("unreachable")

func (f *flakyGraph) Neighbors(ctx context.Context, p int) ([]sampling.Neighbor[int], sampling.Load, error) {
	nbrs, load, _ := f.multigraph.Neighbors(ctx, p)
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail[p] {
		return nil, sampling.Load{}, errUnreachable
	}
	return nbrs, load, nil
}

// TestViewRetriesFailedFetch: a failed fetch is not kept, so every
// question about an unreachable peer is one more message, and a peer that
// answers later is kept from then on.
func TestViewRetriesFailedFetch(t *testing.T) {
	g := randomMultigraph(rand.New(rand.NewSource(3)), 10, 10)
	f := &flakyGraph{multigraph: g, fail: map[int]bool{5: true}}
	v := sampling.NewView[int](f, 0, g.list(0))
	full := keyspace.FullRange()
	for try := 1; try <= 2; try++ {
		if _, sent, err := v.Neighbors(bg, 5, full, nil); !errors.Is(err, errUnreachable) || sent != 1 {
			t.Fatalf("try %d: %d messages, err = %v", try, sent, err)
		}
	}
	delete(f.fail, 5)
	for _, want := range []int{1, 0} {
		got, sent, err := v.Neighbors(bg, 5, full, nil)
		if err != nil || sent != want || !slices.Equal(got, g.adj[5]) {
			t.Fatalf("after recovery: %v with %d messages (want %d), err = %v", got, sent, want, err)
		}
	}
	if g.asked[5] != 3 {
		t.Errorf("peer 5 asked %d times, want 3", g.asked[5])
	}
}

// TestViewConcurrentFetch: two walks asking for one peer at once, as the
// parallel draws of a Pick do, send one message between them when it
// answers and one each when it does not — what they would send one after
// the other.
func TestViewConcurrentFetch(t *testing.T) {
	for _, fail := range []bool{false, true} {
		g := randomMultigraph(rand.New(rand.NewSource(4)), 10, 10)
		f := &flakyGraph{multigraph: g, fail: map[int]bool{5: fail}, gate: make(chan struct{})}
		v := sampling.NewView[int](f, 0, g.list(0))
		var wg sync.WaitGroup
		var sent [2]int
		var errs [2]error
		for i := range sent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, sent[i], errs[i] = v.Neighbors(bg, 5, keyspace.FullRange(), nil)
			}()
		}
		time.Sleep(20 * time.Millisecond) // both ask while the first fetch waits
		close(f.gate)
		wg.Wait()
		want := 1
		if fail {
			want = 2
		}
		if g.asked[5] != want || sent[0]+sent[1] != want {
			t.Errorf("fail=%v: %d fetches, messages %v, want %d", fail, g.asked[5], sent, want)
		}
		for _, err := range errs {
			if (err != nil) != fail {
				t.Errorf("fail=%v: err = %v", fail, err)
			}
		}
	}
}

// TestViewLoads: the view keeps the load each fetched list carried, Moved
// moves a load it holds, and a list fetched after a move reports the
// peer's own load, which Moved did not touch.
func TestViewLoads(t *testing.T) {
	g := randomMultigraph(rand.New(rand.NewSource(5)), 10, 10)
	v := sampling.NewView[int](g, 0, g.list(0))
	full := keyspace.FullRange()
	if _, _, err := v.Neighbors(bg, 3, full, nil); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(3); got != (sampling.Load{In: 3, Max: 100}) {
		t.Fatalf("fetched load %+v", got)
	}
	v.Moved(3, -1)
	v.Moved(3, 2)
	v.Moved(7, 1) // not fetched yet: its answer will carry the move
	if got := v.Load(3); got.In != 4 {
		t.Errorf("moved load %+v, want In 4", got)
	}
	if _, _, err := v.Neighbors(bg, 7, full, nil); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(7); got.In != 7 {
		t.Errorf("load fetched after a move %+v, want In 7", got)
	}
	if got := v.Load(9); got != (sampling.Load{}) {
		t.Errorf("unfetched load %+v, want zero", got)
	}
}
