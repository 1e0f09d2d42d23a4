package p2p

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// shedTransport wraps an endpoint and sheds outbound calls to selected
// peers with transport.ErrOverloaded — a precise, countable stand-in for
// a saturated receiver. A budget of n sheds the next n calls to the
// target; shedForever sheds every call.
const shedForever = -1

type shedTransport struct {
	transport.Transport
	mu    sync.Mutex
	sheds map[transport.Addr]int
	count map[transport.Addr]int
}

func newShedTransport(inner transport.Transport) *shedTransport {
	return &shedTransport{
		Transport: inner,
		sheds:     make(map[transport.Addr]int),
		count:     make(map[transport.Addr]int),
	}
}

func (s *shedTransport) shed(addr transport.Addr, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sheds[addr] = n
}

func (s *shedTransport) shedCount(addr transport.Addr) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count[addr]
}

func (s *shedTransport) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	s.mu.Lock()
	rem := s.sheds[addr]
	if rem != 0 {
		if rem > 0 {
			s.sheds[addr] = rem - 1
		}
		s.count[addr]++
		s.mu.Unlock()
		return nil, fmt.Errorf("shed by test: %w", transport.ErrOverloaded)
	}
	s.mu.Unlock()
	return s.Transport.CallCtx(ctx, addr, req)
}

// shedRing builds a 4-node ring whose node 0 speaks through a
// shedTransport, so tests can saturate any peer from node 0's viewpoint.
func shedRing(t *testing.T) ([]*Node, *shedTransport) {
	t.Helper()
	fabric := transport.NewFabric()
	shed := newShedTransport(fabric.Endpoint())
	var nodes []*Node
	for i := 0; i < 4; i++ {
		var tr transport.Transport = fabric.Endpoint()
		if i == 0 {
			tr = shed
		}
		n := mustNode(t, tr, Config{
			Key: keyspace.FromFloat(float64(i) / 4), MaxIn: 8, MaxOut: 8, Seed: int64(i),
		})
		if i > 0 {
			if err := n.Join(context.Background(), nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			n.Stabilize(ctx)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
	return nodes, shed
}

// TestOverloadedPeerStaysLinked is the regression test for the
// overloaded-means-dead bug: a successor that sheds a whole stabilisation
// round must keep its place in the ring, where it used to be adopted away
// from and its predecessor slot cleared.
func TestOverloadedPeerStaysLinked(t *testing.T) {
	nodes, shed := shedRing(t)
	ctx := context.Background()
	st := nodes[0].State()
	succ, pred := st.Succ(), st.Pred
	if succ.Addr != nodes[1].Self().Addr {
		t.Fatalf("ring did not form: succ(0) = %v", succ)
	}

	// Saturate both ring neighbours for the entire round (retries
	// included) and stabilise through it.
	shed.shed(succ.Addr, shedForever)
	shed.shed(pred.Addr, shedForever)
	for i := 0; i < 3; i++ {
		nodes[0].Stabilize(ctx)
	}

	if got := nodes[0].State().Succ().Addr; got != succ.Addr {
		t.Errorf("overloaded successor was evicted: succ = %s, want %s", got, succ.Addr)
	}
	if got := nodes[0].State().Pred.Addr; got != pred.Addr {
		t.Errorf("overloaded predecessor was dropped: pred = %s, want %s", got, pred.Addr)
	}

	// Heal the overload: the same pointers keep working with zero repair
	// traffic, proving nothing was torn down meanwhile.
	shed.shed(succ.Addr, 0)
	shed.shed(pred.Addr, 0)
	if _, _, err := nodes[0].Lookup(ctx, keyspace.FromFloat(0.6)); err != nil {
		t.Fatalf("lookup after overload cleared: %v", err)
	}
}

// TestOverloadRetryOnce: a single shed is absorbed by the one-retry
// contract — the op succeeds and the peer saw exactly one shed call.
func TestOverloadRetryOnce(t *testing.T) {
	nodes, shed := shedRing(t)
	ctx := context.Background()
	key := keyspace.FromFloat(0.6) // owned by node 3 (keys at 0, .25, .5, .75)

	owner, _, err := nodes[0].Lookup(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	shed.shed(owner.Addr, 1)
	if _, err := nodes[0].Put(ctx, key, []byte("v")); err != nil {
		t.Fatalf("put through a once-shedding owner = %v, want success via retry", err)
	}
	if got := shed.shedCount(owner.Addr); got != 1 {
		t.Fatalf("owner shed %d calls, want exactly 1", got)
	}
	res, err := nodes[0].Get(ctx, key)
	if err != nil || !res.Found || string(res.Value) != "v" {
		t.Fatalf("get after retried put = (%+v, %v)", res, err)
	}
}

// TestOverloadSurfacesTypedError: when the shed persists past the retry,
// the typed error must reach the caller — not be converted into a
// dead-peer no-route — and with no deadline budget the retry is skipped.
func TestOverloadSurfacesTypedError(t *testing.T) {
	nodes, shed := shedRing(t)
	ctx := context.Background()
	key := keyspace.FromFloat(0.6)

	owner, _, err := nodes[0].Lookup(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	shed.shed(owner.Addr, shedForever)
	_, err = nodes[0].Put(ctx, key, []byte("v"))
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("put against a saturated owner = %v, want ErrOverloaded to surface", err)
	}
	if errors.Is(err, ErrNoRoute) {
		t.Fatalf("overload was misread as no-route: %v", err)
	}

	// A context with no room for the backoff skips the retry: exactly one
	// shed per attempt, and the typed error still surfaces.
	before := shed.shedCount(owner.Addr)
	dctx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
	defer cancel()
	_, err = nodes[0].Put(dctx, key, []byte("v"))
	if err == nil {
		t.Fatal("put with 2ms deadline against a saturated owner succeeded")
	}
	if got := shed.shedCount(owner.Addr) - before; got > 1 {
		t.Errorf("deadline-starved call shed %d times, want at most 1 (no retry budget)", got)
	}
}
