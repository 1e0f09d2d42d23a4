package p2p

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/oscar-overlay/oscar/internal/faultnet"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// countingTransport counts what one node puts on the fabric, what it
// addresses to itself and what it runs for others, and gives a test two seams: beforeSend runs ahead of an
// outbound call (the place to move the ring under a walk's feet), and
// onServe may replace an inbound request before the handler sees it.
type countingTransport struct {
	transport.Transport

	mu sync.Mutex
	// sent counts outbound calls by op; sentCarry the find_owner calls
	// among them that carried an op, by that op; sentSelf the calls
	// addressed to the node itself, by op.
	sent, sentCarry, sentSelf map[transport.Op]int
	// ran counts the carried ops this node executed for a find_owner.
	ran        map[transport.Op]int
	beforeSend func(addr transport.Addr, req *transport.Request)
	onServe    func(req *transport.Request) *transport.Request
}

func newCountingTransport(inner transport.Transport) *countingTransport {
	return &countingTransport{
		Transport: inner,
		sent:      make(map[transport.Op]int),
		sentCarry: make(map[transport.Op]int),
		sentSelf:  make(map[transport.Op]int),
		ran:       make(map[transport.Op]int),
	}
}

func (c *countingTransport) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	c.mu.Lock()
	c.sent[req.Op]++
	if req.Carry != "" {
		c.sentCarry[req.Carry]++
	}
	if addr == c.Addr() {
		c.sentSelf[req.Op]++
	}
	hook := c.beforeSend
	c.mu.Unlock()
	if hook != nil {
		hook(addr, req)
	}
	return c.Transport.CallCtx(ctx, addr, req)
}

func (c *countingTransport) Serve(h transport.Handler) {
	c.Transport.Serve(func(req *transport.Request) *transport.Response {
		c.mu.Lock()
		hook := c.onServe
		c.mu.Unlock()
		if hook != nil {
			req = hook(req)
		}
		resp := h(req)
		if resp.Owner.Addr != "" && resp.OK {
			c.mu.Lock()
			c.ran[req.Carry]++
			c.mu.Unlock()
		}
		return resp
	})
}

// calls returns the number of calls sent since the last reset.
func (c *countingTransport) calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.sent {
		total += n
	}
	return total
}

// get reads one of the transport's counters (c.sent, c.sentCarry,
// c.sentSelf, c.ran).
func (c *countingTransport) get(counter map[transport.Op]int, op transport.Op) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return counter[op]
}

func (c *countingTransport) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.sent)
	clear(c.sentCarry)
	clear(c.sentSelf)
	clear(c.ran)
}

// carryRing boots size nodes at evenly spaced keys on one in-memory
// fabric, caches off so every op pays its walk, each speaking through a
// countingTransport (over wrap, when given). Node i sits at key i/size.
// The fabric comes back too, for tests that add a peer later.
func carryRing(t *testing.T, size int, rewire bool, wrap func(transport.Transport) transport.Transport) ([]*Node, []*countingTransport, *transport.Fabric) {
	t.Helper()
	return countedRing(t, size, Config{}, false, rewire, wrap)
}

// countedRing is carryRing with the settings of base, and with the route
// cache on when cached.
func countedRing(t *testing.T, size int, base Config, cached, rewire bool, wrap func(transport.Transport) transport.Transport) ([]*Node, []*countingTransport, *transport.Fabric) {
	t.Helper()
	fabric := transport.NewFabric()
	var nodes []*Node
	var trs []*countingTransport
	for i := 0; i < size; i++ {
		var inner transport.Transport = fabric.Endpoint()
		if wrap != nil {
			inner = wrap(inner)
		}
		tr := newCountingTransport(inner)
		cfg := base
		cfg.Key, cfg.MaxIn, cfg.MaxOut, cfg.Seed = keyspace.FromFloat(float64(i)/float64(size)), 8, 8, int64(i)
		n := mustNode(t, tr, cfg)
		if !cached {
			uncached(n)
		}
		if i > 0 {
			if err := n.Join(bg, nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes, trs = append(nodes, n), append(trs, tr)
	}
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			n.Stabilize(bg)
		}
	}
	if rewire {
		for _, n := range nodes {
			if err := n.Rewire(bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
	for _, tr := range trs {
		tr.reset()
	}
	return nodes, trs, fabric
}

// TestCarriedOpMessageCount is the cost table of the carried op: with the
// caches off, a put, a get, a delete and the first page of a scan each put
// exactly the walk's hops on the fabric — the same number Lookup pays and
// reports — and none at all when the entry node owns the key.
func TestCarriedOpMessageCount(t *testing.T) {
	for _, size := range []int{3, 8} {
		nodes, trs, _ := carryRing(t, size, true, nil)
		local, multi := 0, 0
		for e, n := range nodes {
			tr := trs[e]
			for i := 0; i < 24; i++ {
				k := keyspace.FromFloat((float64(i) + 0.37) / 24)
				owner := expectedOwner(nodes, k)

				tr.reset()
				got, hops, err := n.Lookup(bg, k)
				if err != nil || got.Addr != owner.Addr {
					t.Fatalf("n=%d entry %d: lookup %v = %v, %v; want %s", size, e, k, got, err, owner.Addr)
				}
				if tr.calls() != hops {
					t.Errorf("n=%d entry %d: lookup %v reported %d hops, sent %d calls", size, e, k, hops, tr.calls())
				}
				if (hops == 0) != (owner.Addr == n.Self().Addr) {
					t.Errorf("n=%d entry %d: lookup %v cost %d, owner %s", size, e, k, hops, owner.Addr)
				}
				if hops == 0 {
					local++
				} else if hops > 1 {
					multi++
				}

				check := func(name string, cost int, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("n=%d entry %d: %s %v: %v", size, e, name, k, err)
					}
					if cost != hops || tr.calls() != hops {
						t.Errorf("n=%d entry %d: %s %v cost %d and sent %d calls, want the walk's %d hops", size, e, name, k, cost, tr.calls(), hops)
					}
					tr.reset()
				}
				tr.reset()
				put, err := n.Put(bg, k, []byte("v"))
				check("put", put.Cost, err)
				get, err := n.Get(bg, k)
				check("get", get.Cost, err)
				if !get.Found || !bytes.Equal(get.Value, []byte("v")) || get.Owner.Addr != owner.Addr {
					t.Errorf("n=%d entry %d: get %v = %+v, want v from %s", size, e, k, get, owner.Addr)
				}
				page, err := n.NewScanSession(k, k+1).NextPage(bg, k, 0)
				check("scan page", page.Cost, err)
				if len(page.Items) != 1 || page.Items[0].Key != k || !page.Done {
					t.Errorf("n=%d entry %d: scan page at %v = %+v, want the one item and done", size, e, k, page)
				}
				del, err := n.Delete(bg, k)
				check("delete", del.Cost, err)
				if !del.Found {
					t.Errorf("n=%d entry %d: delete %v found nothing", size, e, k)
				}
			}
		}
		if local == 0 || (size == 8 && multi == 0) {
			t.Errorf("n=%d: table has %d local and %d multi-hop keys; it must cover both", size, local, multi)
		}
	}
}

// staleHop is a transport under which, once armed, the next find_owner
// this node sends is answered "not mine, try <back>" without reaching
// anyone — what a responder whose view churn left stale says.
type staleHop struct {
	transport.Transport
	mu   sync.Mutex
	back *transport.PeerRef
}

func (s *staleHop) arm(back transport.PeerRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.back = &back
}

func (s *staleHop) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	s.mu.Lock()
	back := s.back
	if req.Op == transport.OpFindOwner {
		s.back = nil
	} else {
		back = nil
	}
	s.mu.Unlock()
	if back != nil {
		return &transport.Response{OK: true, Peer: *back}, nil
	}
	return s.Transport.CallCtx(ctx, addr, req)
}

// TestCarriedOpLoopedWalkCost pins the cost of a walk that churn routes
// back through its entry node: that step is dispatched in-process, like
// the walk's first, so the op still costs exactly the calls it put on the
// fabric — the stale hop included.
func TestCarriedOpLoopedWalkCost(t *testing.T) {
	var stale []*staleHop
	nodes, trs, _ := carryRing(t, 8, true, func(inner transport.Transport) transport.Transport {
		s := &staleHop{Transport: inner}
		stale = append(stale, s)
		return s
	})
	entry, tr := nodes[0], trs[0]
	k, owner := remoteKey(t, nodes, entry)
	_, hops, err := entry.Lookup(bg, k)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, cost int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cost != tr.calls() || cost != hops+1 {
			t.Errorf("%s through a stale hop cost %d and sent %d calls, want both to be the %d hops plus the stale one", name, cost, tr.calls(), hops)
		}
	}
	run := func(name string, op func() (int, error)) {
		t.Helper()
		stale[0].arm(entry.Self())
		tr.reset()
		cost, err := op()
		check(name, cost, err)
	}
	run("lookup", func() (int, error) {
		got, cost, err := entry.Lookup(bg, k)
		if err == nil && got.Addr != owner.Self().Addr {
			t.Errorf("lookup through a stale hop = %s, want %s", got.Addr, owner.Self().Addr)
		}
		return cost, err
	})
	run("put", func() (int, error) {
		res, err := entry.Put(bg, k, []byte("v"))
		return res.Cost, err
	})
	run("get", func() (int, error) {
		res, err := entry.Get(bg, k)
		if err == nil && (!res.Found || !bytes.Equal(res.Value, []byte("v"))) {
			t.Errorf("get through a stale hop = %+v, want v", res)
		}
		return res.Cost, err
	})
	run("delete", func() (int, error) {
		res, err := entry.Delete(bg, k)
		return res.Cost, err
	})
}

// shedReplicate is a transport that, once armed, sheds the next replica
// push it is asked to send, as a saturated replica would.
type shedReplicate struct {
	transport.Transport
	armed *atomic.Bool
}

func (s shedReplicate) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	if req.Op == transport.OpReplicate && s.armed.CompareAndSwap(true, false) {
		return nil, fmt.Errorf("%w: %s is saturated", transport.ErrOverloaded, addr)
	}
	return s.Transport.CallCtx(ctx, addr, req)
}

// TestCarriedPutShedPushCost: at r=2, a replica push the replica sheds is
// sent again, and the put's Cost counts both sends — it equals the calls
// the writer put on the fabric.
func TestCarriedPutShedPushCost(t *testing.T) {
	var armed atomic.Bool
	nodes, trs, _ := countedRing(t, 4, Config{Replicas: 2}, false, false, func(inner transport.Transport) transport.Transport {
		return shedReplicate{Transport: inner, armed: &armed}
	})
	entry, tr := nodes[0], trs[0]
	k := keyspace.FromFloat(0.3) // owned by nodes[2], replicated on nodes[3]
	armed.Store(true)
	res, err := entry.PutW(bg, k, []byte("v"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner.Addr != nodes[2].Self().Addr || armed.Load() {
		t.Fatalf("put served by %s with the shed still armed: %v; the test needs a remote owner and replica", res.Owner.Addr, armed.Load())
	}
	if pushes := tr.get(tr.sent, transport.OpReplicate); pushes != 2 {
		t.Errorf("%d replica pushes sent, want the shed one and its retry", pushes)
	}
	if res.Cost != tr.calls() {
		t.Errorf("put cost %d and sent %d calls", res.Cost, tr.calls())
	}
}

// TestInProcessDispatchCopies pins the one boundary no frame copies for:
// what the node stores for itself — as the owner, or as a member of the
// owner's chain taking the writer's replica push — is a copy of the
// caller's buffer, and what Get hands back from its own store is a copy
// too. Three nodes at r=3, so the writer is in every chain.
func TestInProcessDispatchCopies(t *testing.T) {
	c, err := NewCluster(bg, ClusterConfig{Size: 3, Seed: 42, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	entry := c.Nodes[0]
	own := entry.Self().Key
	remote, _ := pickRemoteKey(t, c, entry)

	for name, k := range map[string]keyspace.Key{"owner": own, "chain member": remote} {
		buf := []byte("mine")
		if _, err := entry.Put(bg, k, buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		copy(buf, "BUF!")
		ks := entry.KeyState(k)
		held, ok := ks.Primary, ks.HasPrimary
		if name != "owner" {
			held, ok = ks.Replica, ks.HasReplica
		}
		if !ok || string(held) != "mine" {
			t.Errorf("%s: the node's own store holds %q, %v after the caller reused its buffer", name, held, ok)
		}
	}
	got, err := entry.Get(bg, own)
	if err != nil || string(got.Value) != "mine" {
		t.Fatalf("get = %q, %v", got.Value, err)
	}
	copy(got.Value, "GOT!")
	if held := entry.KeyState(own).Primary; string(held) != "mine" {
		t.Errorf("the store holds %q after the caller overwrote the value Get returned", held)
	}
}

// TestTCPStoresExactValues is TestInProcessDispatchCopies's TCP twin: the
// value an owner stores from a carried put's frame, and the copy its
// replica stores from the writer's push, each sit in an allocation of
// exactly their size — no frame bytes around them.
func TestTCPStoresExactValues(t *testing.T) {
	const size = 3
	var nodes []*Node
	for i := 0; i < size; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := uncached(mustNode(t, ep, Config{
			Key: keyspace.FromFloat(float64(i) / size), MaxIn: 8, MaxOut: 8, Seed: int64(i),
			Replicas: 2,
		}))
		t.Cleanup(func() { _ = n.Close() })
		if i > 0 {
			if err := n.Join(bg, nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			n.Stabilize(bg)
		}
	}
	k := keyspace.FromFloat(0.2) // owned by nodes[1], replicated on nodes[2]
	value := bytes.Repeat([]byte("v"), 256)
	res, err := nodes[0].PutW(bg, k, value, 2)
	if err != nil || res.Owner.Addr != nodes[1].Self().Addr {
		t.Fatalf("put served by %s: %v; the test needs a remote owner", res.Owner.Addr, err)
	}
	for name, ks := range map[string]KeyState{
		"owner": nodes[1].KeyState(k), "replica": nodes[2].KeyState(k),
	} {
		v, ok := ks.Primary, ks.HasPrimary
		if name == "replica" {
			v, ok = ks.Replica, ks.HasReplica
		}
		if !ok || !bytes.Equal(v, value) || cap(v) != len(v) {
			t.Errorf("%s holds %d bytes in a buffer of %d (found %v), want %d in %d", name, len(v), cap(v), ok, len(value), len(value))
		}
	}
}

// remoteKey is pickRemoteKey on a bare node list, returning the owner as
// a node.
func remoteKey(t *testing.T, nodes []*Node, from *Node) (keyspace.Key, *Node) {
	t.Helper()
	k, owner := pickRemoteKey(t, &Cluster{Nodes: nodes}, from)
	return k, nodeByAddr(t, nodes, owner.Addr)
}

// TestCarriedWriteContract pins the contract of the hop that carries a
// write. It is the data RPC, not a routing probe: when its reply is lost
// the owner has run the write, so the caller gets the owner-unreachable
// error and nothing is sent again — no retry, no exclusion and re-route.
func TestCarriedWriteContract(t *testing.T) {
	t.Run("lost reply", func(t *testing.T) {
		fnet := faultnet.New(1)
		nodes, trs, _ := carryRing(t, 4, false, fnet.Wrap)
		entry := nodes[0]
		k, owner := remoteKey(t, nodes, entry)
		for _, tr := range trs {
			tr.reset()
		}
		fnet.SetLink(entry.Self().Addr, owner.Self().Addr, faultnet.Faults{DropReply: 1})

		_, err := entry.Put(bg, k, []byte("once"))
		if !errors.Is(err, transport.ErrUnreachable) || !strings.Contains(err.Error(), "owner unreachable") {
			t.Fatalf("put with the carried hop's reply lost = %v, want the owner-unreachable error", err)
		}
		if ks := owner.KeyState(k); !ks.HasPrimary || !bytes.Equal(ks.Primary, []byte("once")) {
			t.Fatalf("owner holds %q, %v: the carried put did not run", ks.Primary, ks.HasPrimary)
		}
		if ran := ranTotal(transport.OpPut, trs...); ran != 1 {
			t.Errorf("the put ran %d times, want 1", ran)
		}
		if c, d := trs[0].get(trs[0].sentCarry, transport.OpPut), trs[0].get(trs[0].sent, transport.OpPut); c != 1 || d != 0 {
			t.Errorf("entry sent %d carrying hops and %d direct puts, want 1 and 0: the write was re-sent", c, d)
		}
	})
}

// ranTotal sums the carried executions of op over every transport.
func ranTotal(op transport.Op, trs ...*countingTransport) int {
	total := 0
	for _, tr := range trs {
		total += tr.get(tr.ran, op)
	}
	return total
}

// TestCarriedOpStaleSafety moves the arc between the step that names the
// owner and the hop that carries the op there: a joiner splices in at the
// key. The old owner must refuse — by no longer answering Found, or, with
// its predecessor slot cleared so that routing claims the whole circle,
// by the write gate's arc floor — and the op must run exactly once, at
// the joiner.
func TestCarriedOpStaleSafety(t *testing.T) {
	for _, clearPred := range []bool{false, true} {
		name := "owner no longer found"
		if clearPred {
			name = "arc floor refuses"
		}
		t.Run(name, func(t *testing.T) {
			nodes, trs, fabric := carryRing(t, 4, false, nil)
			entry := nodes[0]
			k, old := remoteKey(t, nodes, entry)
			jtr := newCountingTransport(fabric.Endpoint())
			joiner := uncached(mustNode(t, jtr, Config{Key: k, MaxIn: 8, MaxOut: 8, Seed: 99}))
			t.Cleanup(func() { _ = joiner.Close() })
			for _, tr := range trs {
				tr.reset()
			}

			// The put below runs on this goroutine, and so does the hook.
			spliced := false
			trs[0].beforeSend = func(addr transport.Addr, req *transport.Request) {
				if spliced || req.Carry != transport.OpPut || addr != old.Self().Addr {
					return
				}
				spliced = true
				if err := joiner.Join(bg, old.Self().Addr); err != nil {
					t.Errorf("join: %v", err)
				}
				if clearPred {
					old.mu.Lock()
					old.pred = old.self
					old.mu.Unlock()
				}
			}
			res, err := entry.Put(bg, k, []byte("moved"))
			if err != nil {
				t.Fatalf("put across the splice: %v", err)
			}
			if !spliced {
				t.Fatal("test setup: no hop carried the put to the old owner")
			}
			if res.Owner.Addr != joiner.Self().Addr {
				t.Errorf("put landed on %s, want the joiner %s", res.Owner.Addr, joiner.Self().Addr)
			}
			if ks := joiner.KeyState(k); !ks.HasPrimary || !bytes.Equal(ks.Primary, []byte("moved")) {
				t.Errorf("joiner holds %q, %v", ks.Primary, ks.HasPrimary)
			}
			if ks := old.KeyState(k); ks.HasPrimary {
				t.Errorf("old owner kept %q: the write was stranded there", ks.Primary)
			}
			if ran := ranTotal(transport.OpPut, append(trs, jtr)...); ran != 1 {
				t.Errorf("the put ran %d times, want 1", ran)
			}
		})
	}
}

// TestCarriedOpIgnored pins the direct data RPC a route without a result
// takes — an owner reached by a backtrack, or a chain head standing in for
// a dead cached owner — by stripping the carry tag at every responder:
// every op still completes, at one message more than the walk.
func TestCarriedOpIgnored(t *testing.T) {
	nodes, trs, _ := carryRing(t, 4, false, nil)
	for _, tr := range trs {
		tr.onServe = func(req *transport.Request) *transport.Request {
			plain := *req
			plain.Carry = ""
			return &plain
		}
	}
	entry, tr := nodes[0], trs[0]
	k, owner := remoteKey(t, nodes, entry)
	_, hops, _ := entry.Lookup(bg, k)
	check := func(name string, direct transport.Op, cost int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cost != hops+1 || tr.get(tr.sent, direct) != 1 {
			t.Errorf("%s cost %d with %d direct calls, want %d hops and the one data RPC", name, cost, tr.get(tr.sent, direct), hops)
		}
		tr.reset()
	}
	tr.reset()
	put, err := entry.Put(bg, k, []byte("v"))
	check("put", transport.OpPut, put.Cost, err)
	if ks := owner.KeyState(k); !ks.HasPrimary || !bytes.Equal(ks.Primary, []byte("v")) {
		t.Errorf("owner holds %q, %v after the direct put", ks.Primary, ks.HasPrimary)
	}
	get, err := entry.Get(bg, k)
	check("get", transport.OpGet, get.Cost, err)
	if !get.Found || !bytes.Equal(get.Value, []byte("v")) {
		t.Errorf("get = %+v, want v", get)
	}
	page, err := entry.NewScanSession(k, k+1).NextPage(bg, k, 0)
	check("scan page", transport.OpScan, page.Cost, err)
	if len(page.Items) != 1 || page.Items[0].Key != k {
		t.Errorf("scan page = %+v, want the one item", page)
	}
	del, err := entry.Delete(bg, k)
	check("delete", transport.OpDelete, del.Cost, err)
	if !del.Found {
		t.Error("delete found nothing")
	}
	if ran := ranTotal(transport.OpPut, trs...) + ranTotal(transport.OpGet, trs...); ran != 0 {
		t.Errorf("%d carried ops ran at responders that ignore them", ran)
	}
}
