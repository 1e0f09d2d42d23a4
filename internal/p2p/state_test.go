package p2p

import (
	"cmp"
	"slices"
	"testing"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// TestStateDuringRewire reads State on every node of a 64-node ring while
// every node rewires at once. Each record is one lock hold's copy, so it
// never shows a node over a link budget, and its successor list is in
// ring order with no peer twice.
func TestStateDuringRewire(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 64, Seed: 3, Degrees: degreedist.Constant(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.RewireAll(bg)
	}()
	passes := 0
	for rewiring := true; rewiring; passes++ {
		select {
		case <-done:
			rewiring = false
		default:
		}
		for i, n := range c.Nodes {
			st := n.State()
			if len(st.Out) > st.MaxOut || len(st.In) > st.MaxIn {
				t.Fatalf("node %02d: %d out-links (cap %d), %d in-links (cap %d)", i, len(st.Out), st.MaxOut, len(st.In), st.MaxIn)
			}
			if !slices.IsSortedFunc(st.In, func(a, b transport.PeerRef) int { return cmp.Compare(a.Addr, b.Addr) }) {
				t.Fatalf("node %02d: in-links not sorted by address: %v", i, st.In)
			}
			prev := uint64(0)
			for j, p := range st.Succs {
				d := st.Self.Key.Distance(p.Key)
				if p.Addr == st.Self.Addr || d <= prev {
					t.Fatalf("node %02d: successor %d of %v out of ring order or repeated", i, j, st.Succs)
				}
				prev = d
			}
		}
	}
	t.Logf("%d passes over the ring's states during the rewire", passes)
}
