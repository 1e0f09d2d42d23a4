package p2p

import (
	"math/rand"
	"testing"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/sampling"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// TestMHUniformityLive is sampling's TestMHUniformity over the live node's
// RPCs (wiring), each walk over a view of its own: on a rewired in-memory
// ring of 24 nodes with varied caps, the shared walk's visit frequencies
// must meet the same bound as over the simulator's graph — the
// best-connected peer oversampled by at most 35 %, and no peer off by more
// than -50 %/+60 %.
func TestMHUniformityLive(t *testing.T) {
	const n, trials = 24, 6000
	fabric := transport.NewFabric()
	rnd := rand.New(rand.NewSource(11))
	var nodes []*Node
	for i := 0; i < n; i++ {
		caps := 3 + rnd.Intn(10)
		node, err := NewNode(fabric.Endpoint(), Config{
			Key: keyspace.FromFloat(rnd.Float64()), MaxIn: caps, MaxOut: caps, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		if i > 0 {
			if err := node.Join(bg, nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, node)
	}
	for round := 0; round < 3; round++ {
		for _, node := range nodes {
			node.Stabilize(bg)
		}
	}
	for _, node := range nodes {
		if err := node.Rewire(bg); err != nil {
			t.Fatal(err)
		}
	}
	w := wiring{nodes[0]}
	var hub transport.PeerRef
	most := -1
	for _, node := range nodes {
		nbrs, _, err := w.Neighbors(bg, node.Self())
		if err != nil {
			t.Fatal(err)
		}
		if len(nbrs) > most {
			hub, most = node.Self(), len(nbrs)
		}
	}
	walkRand := rand.New(rand.NewSource(5))
	counts := make(map[transport.PeerRef]int, n)
	for trial := 0; trial < trials; trial++ {
		end, _, err := sampling.Walk(bg, core.NewView(w), walkRand, nodes[trial%n].Self(), keyspace.FullRange(), 60)
		if err != nil {
			t.Fatal(err)
		}
		counts[end]++
	}
	want := float64(trials) / n
	if float64(counts[hub]) > want*1.35 {
		t.Errorf("hub visited %d times, uniform expectation %.0f: MH correction failing", counts[hub], want)
	}
	for _, node := range nodes {
		if c := float64(counts[node.Self()]); c < want*0.5 || c > want*1.6 {
			t.Errorf("peer %v visited %.0f times vs expectation %.0f", node.Self().Key, c, want)
		}
	}
}
