package oscar

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/faultnet"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// TestFaultedRing re-runs the whole conformance scenario table on both live
// fabrics with a seeded fault plan underneath: every link drops 5% of
// calls and delays the rest by up to 20ms (internal/faultnet, deterministic
// per seed). The contract is the same table, verbatim — a lossy network
// may cost retries, never answers. A partition subtest then asserts the
// replication story across an asymmetric split: writes and deletes landed
// on an isolated owner reach its replica chain after the heal via
// anti-entropy, and tombstones win — deleted keys stay deleted even when
// only replicas survive.
func TestFaultedRing(t *testing.T) {
	harnesses := []func(*testing.T) *conformanceHarness{
		faultedMemHarness,
		faultedTCPHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runConformance(t, h)
		})
	}
	t.Run("partition-heal", testPartitionHeal)
}

// stabilizeUntil runs stabilisation rounds until probe's ring walk counts
// want peers for three consecutive rounds (or 30s pass — the table's info
// subtest then reports the exact shortfall). On a lossy fabric
// convergence is eventual, not single-round: a dropped probe can re-break
// a pointer the previous round fixed. The extra settled rounds also give
// predecessor pointers time to heal — the walk counts successors, which
// converge a round before preds do, and a cleared pred slot rejects
// writes for the inherited arc until a notify re-offers it.
func stabilizeUntil(ctx context.Context, want int, probe *Node, round func()) {
	deadline := time.Now().Add(30 * time.Second)
	settled := 0
	for settled < 3 {
		round()
		if info, err := probe.Info(ctx); err == nil && info.Peers == want {
			settled++
		} else {
			settled = 0
		}
		if time.Now().After(deadline) {
			return
		}
	}
}

// conformanceFaults is the seeded per-link fault mix under the faulted
// conformance runs: 5% drops plus up to 20ms of jitter on every call.
var conformanceFaults = faultnet.Faults{Drop: 0.05, Jitter: 20 * time.Millisecond}

func faultedMemHarness(t *testing.T) *conformanceHarness {
	t.Helper()
	ctx := context.Background()
	fn := faultnet.New(42)
	c, err := StartCluster(ctx, 16, WithSeed(4), WithTransportWrapper(fn.Wrap))
	if err != nil {
		t.Fatal(err)
	}
	// Boot clean, then turn the weather on: a join that never completed
	// would test the fault plan, not the protocol under it.
	fn.SetDefault(conformanceFaults)
	return &conformanceHarness{
		name:   "p2p/mem+faults",
		client: &retryClient{Client: c.Node(0)},
		crash: func() {
			for _, i := range []int{3, 7, 11} {
				_ = c.Node(i).Close()
			}
			// Under drops, one stabilisation round can re-break what the
			// last one healed; run rounds until the ring walk counts every
			// survivor (the table's info subtest holds the exact number).
			stabilizeUntil(ctx, 13, c.Node(0), func() { c.StabilizeAll(ctx) })
		},
		close:           func() { _ = c.Close() },
		peersAfterCrash: 13,
	}
}

func faultedTCPHarness(t *testing.T) *conformanceHarness {
	t.Helper()
	ctx := context.Background()
	fn := faultnet.New(99)
	const size = 8
	var nodes []*Node
	for i := 0; i < size; i++ {
		n, err := StartNode(NodeConfig{
			Listen: "127.0.0.1:0",
			Key:    KeyFromFloat(float64(i)/size + 0.013),
			MaxIn:  8, MaxOut: 8,
			Seed:          int64(i),
			WrapTransport: fn.Wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := n.Join(ctx, nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			n.Stabilize(ctx)
		}
	}
	for _, n := range nodes {
		if err := n.Rewire(ctx); err != nil {
			t.Fatal(err)
		}
	}
	fn.SetDefault(conformanceFaults)
	return &conformanceHarness{
		name:   "p2p/tcp+faults",
		client: &retryClient{Client: nodes[0]},
		crash: func() {
			_ = nodes[5].Close()
			stabilizeUntil(ctx, 7, nodes[0], func() {
				for _, n := range nodes {
					if !n.isClosed() {
						n.Stabilize(ctx)
					}
				}
			})
		},
		close: func() {
			for _, n := range nodes {
				_ = n.Close()
			}
		},
		peersAfterCrash: 7,
	}
}

// retryClient is the caller's side of the lossy-network bargain: a dropped
// call surfaces as ErrUnavailable (or a transient routing failure), and
// because faults shed requests before delivery, re-issuing is always safe.
// Everything else — not-found, bad ranges, write concern, context errors,
// closed clients — passes through untouched: the scenario table's
// assertions about those must hold verbatim on a faulted fabric. A scan
// retries page by page, from the cursor the failed page started at, on top
// of the scan session's own churn-recovery retries.
type retryClient struct {
	Client
}

func transientErr(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrRoutingFailed)
}

func retryOp[T any](ctx context.Context, op func() (T, error)) (T, error) {
	const attempts = 12
	var out T
	var err error
	for i := 0; i < attempts; i++ {
		out, err = op()
		if err == nil || ctx.Err() != nil || !transientErr(err) {
			return out, err
		}
		select {
		case <-ctx.Done():
			return out, err
		case <-time.After(15 * time.Millisecond):
		}
	}
	return out, err
}

func (r *retryClient) Put(ctx context.Context, key Key, value []byte) (PutResponse, error) {
	return retryOp(ctx, func() (PutResponse, error) { return r.Client.Put(ctx, key, value) })
}

func (r *retryClient) Get(ctx context.Context, key Key) (GetResponse, error) {
	return retryOp(ctx, func() (GetResponse, error) { return r.Client.Get(ctx, key) })
}

func (r *retryClient) Delete(ctx context.Context, key Key) (DeleteResponse, error) {
	return retryOp(ctx, func() (DeleteResponse, error) { return r.Client.Delete(ctx, key) })
}

func (r *retryClient) Lookup(ctx context.Context, key Key) (LookupResponse, error) {
	return retryOp(ctx, func() (LookupResponse, error) { return r.Client.Lookup(ctx, key) })
}

func (r *retryClient) Scan(ctx context.Context, start, end Key, opts ...ScanOption) *Scanner {
	sc := r.Client.Scan(ctx, start, end, opts...)
	if fetch := sc.fetch; fetch != nil {
		sc.fetch = func(ctx context.Context, cursor Key, want int) (scanChunk, error) {
			return retryOp(ctx, func() (scanChunk, error) { return fetch(ctx, cursor, want) })
		}
	}
	return sc
}

func (r *retryClient) Info(ctx context.Context) (InfoResponse, error) {
	return retryOp(ctx, func() (InfoResponse, error) { return r.Client.Info(ctx) })
}

// testPartitionHeal: an owner fully partitioned from the ring keeps taking
// writes and deletes (w=1); its replicas keep serving the pre-partition
// state to the far side. After the heal, one anti-entropy round pushes the
// divergence — new value and tombstone both — to the chain, so even with
// the owner gone for good the far side reads the partition-era write and
// the deleted key stays deleted. Maintenance is manual throughout: ring
// pointers never churn, so the heal is a pure data-convergence story.
func testPartitionHeal(t *testing.T) {
	ctx := context.Background()
	fn := faultnet.New(7)
	const size = 10
	c, err := StartCluster(ctx, size, WithSeed(21),
		WithReplicas(3), WithWriteConcern(1),
		WithStabilizeRounds(4),
		WithTransportWrapper(fn.Wrap))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pick an owner other than the far-side client, and two keys just
	// below its ring position so both live on its arc.
	client := c.Node(0)
	var owner *Node
	for _, n := range c.Nodes()[1:] {
		res, err := client.Lookup(ctx, n.Key()-2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner.Addr == n.Addr() {
			owner = n
			break
		}
	}
	if owner == nil {
		t.Fatal("no suitable owner found")
	}
	kept, gone := owner.Key()-1, owner.Key()-2

	// Pre-partition state, fully replicated: kept=v1 and gone=v0.
	if _, err := client.Put(ctx, kept, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Put(ctx, gone, []byte("v0")); err != nil {
		t.Fatal(err)
	}

	// Isolate the owner from every other node, both directions.
	var farSide []transport.Addr
	for _, n := range c.Nodes() {
		if n.Addr() != owner.Addr() {
			farSide = append(farSide, transport.Addr(n.Addr()))
		}
	}
	fn.Partition([]transport.Addr{transport.Addr(owner.Addr())}, farSide)

	// The isolated owner keeps accepting state changes at w=1: replica
	// pushes fail silently and the divergence accrues.
	if _, err := owner.Put(ctx, kept, []byte("v2")); err != nil {
		t.Fatalf("isolated owner rejected a w=1 put: %v", err)
	}
	if _, err := owner.Delete(ctx, gone); err != nil {
		t.Fatalf("isolated owner rejected a w=1 delete: %v", err)
	}

	// The far side cannot write through the partition: depending on where
	// the walk first touches the blocked links, the failure surfaces as an
	// unreachable owner or as routing giving up on an excluded one.
	if _, err := client.Put(ctx, kept, []byte("nope")); !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrRoutingFailed) {
		t.Fatalf("put across the partition = %v, want ErrUnavailable or ErrRoutingFailed", err)
	}
	// ...and cannot read it either: a lookup only terminates when the
	// owner itself confirms ownership, so with every owner link black-holed
	// and the ring pointers deliberately frozen (no stabilisation during
	// the split), the far side gets a typed failure — never a stale or
	// fabricated answer.
	if got, err := client.Get(ctx, kept); err == nil {
		t.Fatalf("read across the partition answered %q; want a typed failure", got.Value)
	} else if !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrRoutingFailed) {
		t.Fatalf("read across the partition = %v, want ErrUnavailable or ErrRoutingFailed", err)
	}

	// Heal, then let the owner push its partition-era divergence. The
	// round must move both the new value and the tombstone.
	fn.Heal()
	st, err := owner.AntiEntropy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.KeysPushed < 1 || st.TombstonesPushed < 1 {
		t.Fatalf("anti-entropy pushed %d keys / %d tombstones, want >=1 of each", st.KeysPushed, st.TombstonesPushed)
	}

	// The strongest convergence check: kill the owner. If the chain really
	// converged, the far side reads the partition-era write from a replica
	// and the tombstone still wins — the deleted key cannot resurrect.
	_ = owner.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, gerr := client.Get(ctx, kept)
		_, derr := client.Get(ctx, gone)
		if gerr == nil && string(got.Value) == "v2" && errors.Is(derr, ErrNotFound) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-heal state never converged: kept = %q (%v), gone err = %v (want v2, ErrNotFound)",
				got.Value, gerr, derr)
		}
		for _, n := range c.Nodes() {
			if !n.isClosed() {
				n.Stabilize(ctx)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}
