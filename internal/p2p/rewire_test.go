package p2p

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// unlinkShedder sheds the first unlink its node sends once armed, as a
// saturated target would: the call fails with transport.ErrOverloaded and
// never reaches the target.
type unlinkShedder struct {
	transport.Transport
	armed atomic.Bool
}

func (s *unlinkShedder) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	if req.Op == transport.OpUnlink && s.armed.CompareAndSwap(true, false) {
		return nil, fmt.Errorf("shed by test: %w", transport.ErrOverloaded)
	}
	return s.Transport.CallCtx(ctx, addr, req)
}

// TestReleaseRetriesShedUnlink: a rewire whose first unlink is shed
// retries it, so after every node of a wired 32-node ring rewires with its
// first unlink shed, every in-link a node holds belongs to a peer that
// still links it. An unlink sent once and never retried leaves the old
// holder's in-link at the target, against its cap, for good.
func TestReleaseRetriesShedUnlink(t *testing.T) {
	var shedders []*unlinkShedder
	nodes, _, _ := carryRing(t, 32, true, func(inner transport.Transport) transport.Transport {
		s := &unlinkShedder{Transport: inner}
		shedders = append(shedders, s)
		return s
	})
	for _, s := range shedders {
		s.armed.Store(true)
	}
	for _, n := range nodes {
		if err := n.Rewire(bg); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range shedders {
		if s.armed.Load() {
			t.Fatalf("node %02d shed no unlink: the test shows nothing", i)
		}
	}
	outs := make(map[transport.Addr][]transport.PeerRef, len(nodes))
	for _, n := range nodes {
		outs[n.Self().Addr] = n.State().Out
	}
	for i, n := range nodes {
		for _, holder := range n.State().In {
			if !slices.Contains(outs[holder.Addr], n.Self()) {
				t.Errorf("node %02d holds an in-link of %s, which no longer links it", i, holder.Addr)
			}
		}
	}
}

// TestRewireConcurrent rewires every node of a 64-node evenly spaced ring
// (caps 8, route cache off) at once, five times on fresh rings. While the
// others rewire, the loads a pass read with its neighbour lists go stale,
// so a preferred candidate may refuse and hand its slot to the other one.
// Every run keeps each in-degree within its cap and sends nothing but
// neighbors, link and unlink. The five runs' mean links must reach a
// floor and their mean lookup cost stay under a ceiling, both set from 45
// single runs: 392–433 links a run (mean 419) and a uniform lookup cost of
// 3.45–3.67 hops (mean 3.54), while five-run means read 414–425 links and
// 3.47–3.58 hops, under -race too. The floor sits 6 % under the mean links
// and the ceiling 0.11 hop over the mean cost.
func TestRewireConcurrent(t *testing.T) {
	const (
		runs, size, lookups = 5, 64, 16
		minLinks            = 395.0
		maxCost             = 3.65
	)
	var links, cost float64
	for run := range runs {
		nodes, trs, _ := carryRing(t, size, false, nil)
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := n.Rewire(bg); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		made := 0
		for i, n := range nodes {
			st := n.State()
			made += len(st.Out)
			if in := len(st.In); in > n.cfg.MaxIn {
				t.Errorf("run %d: node %02d holds %d in-links over its cap %d", run, i, in, n.cfg.MaxIn)
			}
		}
		msgs := 0
		for _, tr := range trs {
			tr.mu.Lock()
			for op, c := range tr.sent {
				msgs += c
				if op != transport.OpNeighbors && op != transport.OpLink && op != transport.OpUnlink {
					t.Errorf("run %d: a rewire sent %d %s messages", run, c, op)
				}
			}
			tr.mu.Unlock()
		}
		rnd := rand.New(rand.NewSource(int64(run)))
		hops := 0
		for _, n := range nodes {
			for range lookups {
				_, c, err := n.Lookup(bg, keyspace.Key(rnd.Uint64()))
				if err != nil {
					t.Fatal(err)
				}
				hops += c
			}
		}
		runCost := float64(hops) / float64(size*lookups)
		t.Logf("run %d: %d links, %d messages, lookup cost %.3f", run, made, msgs, runCost)
		links += float64(made) / runs
		cost += runCost / runs
	}
	if links < minLinks || cost > maxCost {
		t.Errorf("means over %d runs: %.1f links (floor %.0f), lookup cost %.3f (ceiling %.2f)", runs, links, minLinks, cost, maxCost)
	}
}
