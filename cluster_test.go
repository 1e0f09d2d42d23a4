package oscar

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"github.com/oscar-overlay/oscar/internal/degreedist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// opCounter counts the messages its transport sends, by op, into a map
// shared by every node of a cluster.
type opCounter struct {
	transport.Transport
	mu   *sync.Mutex
	sent map[transport.Op]int
}

func (c opCounter) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	c.mu.Lock()
	c.sent[req.Op]++
	c.mu.Unlock()
	return c.Transport.CallCtx(ctx, addr, req)
}

// wiredOnceMaxCost bounds the mean lookup cost of a boot that wires each
// node once. Seeds 1–12 measured 3.97–4.51 over 3,000 keys, against
// 4.07–4.55 when the boot ran a second pass over all nodes.
const wiredOnceMaxCost = 4.8

// TestStartClusterWiresOnce pins the boot's single wiring pass on
// read-zipf-wan's 64-node boot (Gnutella keys, caps 2–8, r = 3, three
// stabilisation rounds): each joiner wires at the end of its join and
// nothing rewires after, so no message releases a link (a node's first
// pass has none to release), and the mean uncached Lookup cost over 2,000
// uniform keys from random nodes stays under wiredOnceMaxCost on seeds 1–5.
func TestStartClusterWiresOnce(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		var mu sync.Mutex
		sent := make(map[transport.Op]int)
		c, err := StartCluster(ctx, 64, WithSeed(seed), WithKeys(GnutellaKeys()),
			WithDegrees(degreedist.Stepped{2, 3, 4, 8}), WithReplicas(3), WithWriteConcern(1),
			WithStabilizeRounds(3),
			WithTransportWrapper(func(tr transport.Transport) transport.Transport {
				return opCounter{Transport: tr, mu: &mu, sent: sent}
			}))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		unlinks, links := sent[transport.OpUnlink], sent[transport.OpLink]
		mu.Unlock()
		if unlinks != 0 || links == 0 {
			t.Errorf("seed %d: boot sent %d unlink and %d link messages, want 0 and some", seed, unlinks, links)
		}
		const keys = 2000
		r := rand.New(rand.NewSource(seed))
		total := 0
		for range keys {
			res, err := c.Node(r.Intn(c.Len())).Lookup(ctx, keyspace.Key(r.Uint64()))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			total += res.Cost
		}
		c.Close()
		if cost := float64(total) / keys; cost > wiredOnceMaxCost {
			t.Errorf("seed %d: mean lookup cost %.3f, want at most %.1f", seed, cost, wiredOnceMaxCost)
		} else {
			t.Logf("seed %d: mean lookup cost %.3f", seed, cost)
		}
	}
}
