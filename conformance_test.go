package oscar

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/p2p"
)

// The conformance suite runs one identical scenario sequence against the
// Client on both fabrics the runtime speaks: the in-memory channel fabric
// (StartCluster) and loopback TCP (StartNode). It is the contract that
// makes the Client interface mean the same thing on either.

// conformanceHarness is one fabric under test.
type conformanceHarness struct {
	name   string
	client Client
	// crash kills a minority of peers other than the one serving the
	// client, then heals the overlay enough for routing to succeed.
	crash func()
	close func()
	// peersAfterCrash is the alive count Info must report once crash() has
	// run, from the serving node's ring walk.
	peersAfterCrash int
}

func memClusterHarness(t *testing.T) *conformanceHarness {
	t.Helper()
	ctx := context.Background()
	c, err := StartCluster(ctx, 16, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	return &conformanceHarness{
		name:   "p2p/mem",
		client: c.Node(0),
		crash: func() {
			for _, i := range []int{3, 7, 11} {
				_ = c.Node(i).Close()
			}
			for round := 0; round < 6; round++ {
				c.StabilizeAll(ctx)
			}
		},
		close:           func() { _ = c.Close() },
		peersAfterCrash: 13,
	}
}

func tcpClusterHarness(t *testing.T) *conformanceHarness {
	t.Helper()
	ctx := context.Background()
	const size = 8
	var nodes []*Node
	for i := 0; i < size; i++ {
		n, err := StartNode(NodeConfig{
			Listen: "127.0.0.1:0",
			Key:    KeyFromFloat(float64(i)/size + 0.013),
			MaxIn:  8, MaxOut: 8,
			Seed: int64(i),
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
	stabilize := func(rounds int) {
		for round := 0; round < rounds; round++ {
			for _, n := range nodes {
				if !n.isClosed() {
					n.Stabilize(ctx)
				}
			}
		}
	}
	return &conformanceHarness{
		name:   "p2p/tcp",
		client: nodes[0],
		crash: func() {
			_ = nodes[5].Close()
			stabilize(6)
		},
		close: func() {
			for _, n := range nodes {
				_ = n.Close()
			}
		},
		peersAfterCrash: 7,
	}
}

// scanAll drains a Scan into a slice, with the scan's stats and error.
func scanAll(ctx context.Context, cl Client, start, end Key, opts ...ScanOption) ([]Item, ScanStats, error) {
	var items []Item
	sc := cl.Scan(ctx, start, end, opts...)
	for sc.Next() {
		items = append(items, sc.Item())
	}
	return items, sc.Stats(), sc.Err()
}

func TestConformance(t *testing.T) {
	harnesses := []func(*testing.T) *conformanceHarness{
		memClusterHarness,
		tcpClusterHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runConformance(t, h)
		})
	}
}

// runConformance is the single scenario table: both fabrics must pass it
// verbatim.
func runConformance(t *testing.T, h *conformanceHarness) {
	ctx := context.Background()
	cl := h.client
	key := KeyFromFloat(0.35)

	t.Run("get-absent", func(t *testing.T) {
		_, err := cl.Get(ctx, key)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("get absent = %v, want ErrNotFound", err)
		}
	})

	t.Run("put-get-roundtrip", func(t *testing.T) {
		put, err := cl.Put(ctx, key, []byte("v1"))
		if err != nil {
			t.Fatal(err)
		}
		if put.Replaced {
			t.Error("first put reported replacement")
		}
		got, err := cl.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Value) != "v1" {
			t.Fatalf("get = %q", got.Value)
		}
		if got.Cost < 0 {
			t.Error("negative cost")
		}
	})

	t.Run("put-replace", func(t *testing.T) {
		put, err := cl.Put(ctx, key, []byte("v2"))
		if err != nil {
			t.Fatal(err)
		}
		if !put.Replaced {
			t.Error("overwrite not reported as replacement")
		}
		got, err := cl.Get(ctx, key)
		if err != nil || string(got.Value) != "v2" {
			t.Fatalf("get after replace = %q, %v", got.Value, err)
		}
	})

	t.Run("lookup-agrees-with-put", func(t *testing.T) {
		a, err := cl.Lookup(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cl.Lookup(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if a.Owner.Key != b.Owner.Key {
			t.Fatalf("repeated lookups disagree: %v vs %v", a.Owner, b.Owner)
		}
		got, err := cl.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.Owner.Key != a.Owner.Key {
			t.Fatalf("get served by %v, lookup says %v", got.Owner, a.Owner)
		}
	})

	t.Run("delete", func(t *testing.T) {
		if _, err := cl.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get(ctx, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get after delete = %v, want ErrNotFound", err)
		}
		if _, err := cl.Delete(ctx, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("second delete = %v, want ErrNotFound", err)
		}
	})

	// A store owns its bytes: the caller may reuse the buffer it put and
	// scribble on a value it got. The serving peer owns its own key, so
	// these ops are dispatched in-process — the one path on which no frame
	// copies them. (Between two peers of the in-memory fabric a request
	// still travels by reference.)
	t.Run("value-ownership", func(t *testing.T) {
		info, err := cl.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		own := info.Self.Key
		buf := []byte("mine")
		if _, err := cl.Put(ctx, own, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "BUF!")
		got, err := cl.Get(ctx, own)
		if err != nil || string(got.Value) != "mine" {
			t.Fatalf("get after the put buffer was reused = %q, %v", got.Value, err)
		}
		copy(got.Value, "GOT!")
		again, err := cl.Get(ctx, own)
		if err != nil || string(again.Value) != "mine" {
			t.Fatalf("get after a returned value was overwritten = %q, %v", again.Value, err)
		}
		if _, err := cl.Delete(ctx, own); err != nil {
			t.Fatal(err)
		}
	})

	// Bulk data for the range scenarios: one item per fraction i/40.
	const items = 40
	for i := 0; i < items; i++ {
		if _, err := cl.Put(ctx, KeyFromFloat(float64(i)/items), []byte{byte(i)}); err != nil {
			t.Fatalf("bulk put %d: %v", i, err)
		}
	}

	t.Run("range", func(t *testing.T) {
		got, _, err := scanAll(ctx, cl, KeyFromFloat(0.2), KeyFromFloat(0.5))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 12 { // fractions 8/40 .. 19/40
			t.Fatalf("range returned %d items, want 12", len(got))
		}
		for i, it := range got {
			if it.Value[0] != byte(8+i) {
				t.Fatalf("range item %d = value %d, want %d", i, it.Value[0], 8+i)
			}
		}
	})

	t.Run("range-limit", func(t *testing.T) {
		got, _, err := scanAll(ctx, cl, KeyFromFloat(0.2), KeyFromFloat(0.5), WithLimit(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("limit ignored: %d items", len(got))
		}
		for i, it := range got {
			if it.Value[0] != byte(8+i) {
				t.Fatalf("limited range kept item %d, want the first clockwise", it.Value[0])
			}
		}
	})

	t.Run("range-wraparound", func(t *testing.T) {
		// [0.9, 0.1) crosses the top of the circle: fractions 36..39, 0..3.
		got, _, err := scanAll(ctx, cl, KeyFromFloat(0.9), KeyFromFloat(0.1))
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{36, 37, 38, 39, 0, 1, 2, 3}
		if len(got) != len(want) {
			t.Fatalf("wrap-around range returned %d items, want %d", len(got), len(want))
		}
		for i, it := range got {
			if it.Value[0] != want[i] {
				t.Fatalf("wrap-around item %d = value %d, want %d (clockwise order)", i, it.Value[0], want[i])
			}
		}
	})

	t.Run("range-wraparound-limit", func(t *testing.T) {
		got, _, err := scanAll(ctx, cl, KeyFromFloat(0.9), KeyFromFloat(0.1), WithLimit(3))
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{36, 37, 38}
		if len(got) != len(want) {
			t.Fatalf("wrap-around limit returned %d items, want %d", len(got), len(want))
		}
		for i, it := range got {
			if it.Value[0] != want[i] {
				t.Fatalf("wrap-around limited item %d = value %d, want %d", i, it.Value[0], want[i])
			}
		}
	})

	// Scan must return exactly the model's items, in clockwise order from
	// the range start, on both fabrics — including when forced to page,
	// to wrap around the circle, and to stop at a limit.
	t.Run("scan-matches-range", func(t *testing.T) {
		cases := []struct {
			name     string
			lo, hi   float64
			limit    int
			pageSize int
		}{
			{"plain", 0.2, 0.5, 0, 0},
			{"paged", 0.2, 0.5, 0, 3},
			{"limit", 0.2, 0.5, 5, 0},
			{"paged-limit", 0.2, 0.5, 5, 2},
			{"wraparound", 0.9, 0.1, 0, 0},
			{"wraparound-paged", 0.9, 0.1, 0, 3},
			{"wraparound-limit", 0.9, 0.1, 3, 1},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				lo, hi := KeyFromFloat(tc.lo), KeyFromFloat(tc.hi)
				// The model: fraction i/items holds byte(i); the arc
				// [lo, hi) is every key closer to lo, clockwise, than hi.
				var want []Item
				first := int(math.Ceil(tc.lo * items))
				for j := 0; j < items; j++ {
					k := KeyFromFloat(float64((first+j)%items) / items)
					if lo.Distance(k) >= lo.Distance(hi) || (tc.limit > 0 && len(want) == tc.limit) {
						break
					}
					want = append(want, Item{Key: k, Value: []byte{byte((first + j) % items)}})
				}
				opts := []ScanOption{WithLimit(tc.limit)}
				if tc.pageSize > 0 {
					opts = append(opts, WithPageSize(tc.pageSize))
				}
				got, st, err := scanAll(ctx, cl, lo, hi, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("scan = %d items, model = %d", len(got), len(want))
				}
				for i := range got {
					if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
						t.Fatalf("scan item %d = (%v, %q), model has (%v, %q)",
							i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
					}
				}
				if tc.pageSize > 0 && len(want) > tc.pageSize && st.Pages < 2 {
					t.Fatalf("page size %d over %d items fetched only %d page(s)",
						tc.pageSize, len(want), st.Pages)
				}
			})
		}

		// Far more items than a replicate push carries, in a band between
		// two of the model's keys, scanned with no page size: each owner
		// answers with one page, so the pages are at most the owners the
		// band crosses, plus one.
		t.Run("many-items", func(t *testing.T) {
			const many = 1500
			lo, hi := KeyFromFloat(0.605), KeyFromFloat(0.62)
			want := make([]Item, many)
			owners := map[Key]bool{}
			for j := range want {
				want[j] = Item{Key: KeyFromFloat(0.61 + 0.005*float64(j)/many), Value: []byte(fmt.Sprint(j))}
				put, err := cl.Put(ctx, want[j].Key, want[j].Value)
				if err != nil {
					t.Fatalf("put %d: %v", j, err)
				}
				owners[put.Owner.Key] = true
			}
			got, st, err := scanAll(ctx, cl, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != many {
				t.Fatalf("scan = %d items, model = %d", len(got), many)
			}
			for i := range got {
				if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("scan item %d = (%v, %q), model has (%v, %q)",
						i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
			if st.Pages > len(owners)+1 {
				t.Fatalf("%d items on %d owner(s) took %d pages, want at most %d",
					many, len(owners), st.Pages, len(owners)+1)
			}
		})
	})

	t.Run("scan-iterator", func(t *testing.T) {
		// The range-over-func adapter yields the same stream as Next/Item,
		// and breaking out stops the scan early without an error.
		var got []Item
		for it, err := range cl.Scan(ctx, KeyFromFloat(0.2), KeyFromFloat(0.5)).All() {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, it)
		}
		if len(got) != 12 {
			t.Fatalf("All yielded %d items, want 12", len(got))
		}
		n := 0
		for _, err := range cl.Scan(ctx, KeyFromFloat(0.2), KeyFromFloat(0.5), WithPageSize(2)).All() {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == 3 {
				break
			}
		}
		if n != 3 {
			t.Fatalf("broke after %d items, want 3", n)
		}
	})

	t.Run("scan-bad-range", func(t *testing.T) {
		// start == end denotes the full circle in range semantics; the
		// streaming API refuses the footgun with a typed error.
		k := KeyFromFloat(0.4)
		sc := cl.Scan(ctx, k, k)
		if sc.Next() {
			t.Fatal("degenerate scan yielded an item")
		}
		if !errors.Is(sc.Err(), ErrBadRange) {
			t.Fatalf("degenerate scan err = %v, want ErrBadRange", sc.Err())
		}
		if _, _, err := scanAll(ctx, cl, k, k, WithLimit(3)); !errors.Is(err, ErrBadRange) {
			t.Fatalf("degenerate limited scan = %v, want ErrBadRange", err)
		}
	})

	t.Run("scan-skips-deleted", func(t *testing.T) {
		// Fraction 10/40 = 0.25 sits inside [0.2, 0.5): a tombstone must
		// hide it from the stream.
		victim := KeyFromFloat(10.0 / items)
		if _, err := cl.Delete(ctx, victim); err != nil {
			t.Fatal(err)
		}
		sc := cl.Scan(ctx, KeyFromFloat(0.2), KeyFromFloat(0.5))
		n := 0
		for sc.Next() {
			if sc.Item().Key == victim {
				t.Fatal("deleted key leaked into the scan")
			}
			n++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if n != 11 {
			t.Fatalf("scan after delete = %d items, want 11", n)
		}
		// Restore the item for the subtests that follow.
		if _, err := cl.Put(ctx, victim, []byte{10}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("concurrent-clients", func(t *testing.T) {
		const workers, opsPer = 8, 12
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < opsPer; j++ {
					k := KeyFromFloat(0.41 + float64(w*opsPer+j)/1000)
					v := []byte(fmt.Sprintf("w%d-%d", w, j))
					if _, err := cl.Put(ctx, k, v); err != nil {
						errs <- fmt.Errorf("put: %w", err)
						return
					}
					got, err := cl.Get(ctx, k)
					if err != nil {
						errs <- fmt.Errorf("get: %w", err)
						return
					}
					if !bytes.Equal(got.Value, v) {
						errs <- fmt.Errorf("get %v = %q, want %q", k, got.Value, v)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})

	t.Run("cancelled-context", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := cl.Lookup(cctx, key); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled lookup = %v, want context.Canceled", err)
		}
		if _, err := cl.Put(cctx, key, []byte("x")); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled put = %v, want context.Canceled", err)
		}
		if _, err := cl.Get(cctx, key); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled get = %v, want context.Canceled", err)
		}
		if _, err := cl.Delete(cctx, key); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled delete = %v, want context.Canceled", err)
		}
		if _, _, err := scanAll(cctx, cl, key, KeyFromFloat(0.6), WithLimit(5)); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled limited scan = %v, want context.Canceled", err)
		}
		if sc := cl.Scan(cctx, key, KeyFromFloat(0.6)); sc.Next() || !errors.Is(sc.Err(), context.Canceled) {
			t.Errorf("cancelled scan err = %v, want context.Canceled", sc.Err())
		}
		if _, err := cl.Info(cctx); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled info = %v, want context.Canceled", err)
		}
		// The value must not have been written by the cancelled put.
		if got, err := cl.Get(ctx, key); err == nil && string(got.Value) == "x" {
			t.Error("cancelled put still wrote the value")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		dctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
		defer cancel()
		if _, err := cl.Lookup(dctx, key); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("expired deadline lookup = %v, want context.DeadlineExceeded", err)
		}
	})

	t.Run("crash-and-heal", func(t *testing.T) {
		h.crash()
		if _, err := cl.Lookup(ctx, KeyFromFloat(0.77)); err != nil {
			t.Fatalf("lookup after crash: %v", err)
		}
		k := KeyFromFloat(0.771)
		if _, err := cl.Put(ctx, k, []byte("post-crash")); err != nil {
			t.Fatalf("put after crash: %v", err)
		}
		got, err := cl.Get(ctx, k)
		if err != nil || string(got.Value) != "post-crash" {
			t.Fatalf("get after crash = %q, %v", got.Value, err)
		}
	})

	t.Run("info", func(t *testing.T) {
		info, err := cl.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Peers is a successor-pointer ring walk: after the crash
		// scenario healed, it sees the exact survivor count. The walk
		// crosses every ring link, so on a faulted fabric any one probe
		// can transiently fail — poll briefly, then hold the count to the
		// exact survivor number.
		deadline := time.Now().Add(10 * time.Second)
		for info.Peers != h.peersAfterCrash && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			if next, nerr := cl.Info(ctx); nerr == nil {
				info = next
			}
		}
		if info.Peers != h.peersAfterCrash {
			t.Errorf("info reports %d peers after crash, want %d", info.Peers, h.peersAfterCrash)
		}
		if info.Replicas != 1 {
			t.Errorf("unreplicated client reports r=%d", info.Replicas)
		}
	})

	t.Run("closed", func(t *testing.T) {
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get(ctx, key); !errors.Is(err, ErrClosed) {
			t.Errorf("get on closed client = %v, want ErrClosed", err)
		}
		if _, err := cl.Put(ctx, key, nil); !errors.Is(err, ErrClosed) {
			t.Errorf("put on closed client = %v, want ErrClosed", err)
		}
		if sc := cl.Scan(ctx, key, KeyFromFloat(0.6)); sc.Next() || !errors.Is(sc.Err(), ErrClosed) {
			t.Errorf("scan on closed client err = %v, want ErrClosed", sc.Err())
		}
	})
}

// durabilityHarness is one fabric under the crash-durability contract:
// a client writing with r=3, a way to kill the peer that owns a key, and
// a way to know when the overlay has healed enough to assert on.
type durabilityHarness struct {
	name   string
	client Client
	// kill removes the peer identified by an operation's OwnerRef. The
	// overlay heals on its own afterwards, via auto-maintenance.
	kill  func(t *testing.T, owner OwnerRef)
	close func()
}

const durabilityReplicas = 3

// waitRingSize polls Info until the client sees exactly want peers — the
// ring walk completing at the right count means the ring is closed and
// every arc has its true owner, so writes land where reads will look.
func waitRingSize(t *testing.T, cl Client, want int) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(20 * time.Second)
	for {
		info, err := cl.Info(ctx)
		if err == nil && info.Peers == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never reached %d peers (last: %d, err %v)", want, info.Peers, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func durabilityMemHarness(t *testing.T) *durabilityHarness {
	t.Helper()
	ctx := context.Background()
	const size = 10
	c, err := StartCluster(ctx, size, WithSeed(6),
		WithReplicas(durabilityReplicas),
		WithAutoMaintenance(25*time.Millisecond),
		WithStabilizeRounds(4))
	if err != nil {
		t.Fatal(err)
	}
	waitRingSize(t, c.Node(0), size)
	return &durabilityHarness{
		name:   "p2p/mem",
		client: c.Node(0),
		kill: func(t *testing.T, owner OwnerRef) {
			for _, n := range c.Nodes() {
				if n.Addr() == owner.Addr {
					_ = n.Close()
					return
				}
			}
			t.Fatalf("owner %s not found in cluster", owner.Addr)
		},
		close: func() { _ = c.Close() },
	}
}

func durabilityTCPHarness(t *testing.T) *durabilityHarness {
	t.Helper()
	ctx := context.Background()
	const size = 10
	var nodes []*Node
	for i := 0; i < size; i++ {
		n, err := StartNode(NodeConfig{
			Listen: "127.0.0.1:0",
			Key:    KeyFromFloat(float64(i)/size + 0.021),
			MaxIn:  8, MaxOut: 8,
			Replicas:        durabilityReplicas,
			AutoMaintenance: 30 * time.Millisecond,
			Seed:            int64(i),
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
	waitRingSize(t, nodes[0], size)
	return &durabilityHarness{
		name:   "p2p/tcp",
		client: nodes[0],
		kill: func(t *testing.T, owner OwnerRef) {
			for _, n := range nodes {
				if n.Addr() == owner.Addr {
					_ = n.Close()
					return
				}
			}
			t.Fatalf("owner %s not found in cluster", owner.Addr)
		},
		close: func() {
			for _, n := range nodes {
				_ = n.Close()
			}
		},
	}
}

// TestCrashDurability is the durability contract on both fabrics: writing
// with r=3, then killing the node that owns some of the keys and letting
// maintenance heal the ring, loses zero previously-written keys. The
// fabrics heal through their jittered auto-maintenance loops — no manual
// StabilizeAll.
func TestCrashDurability(t *testing.T) {
	harnesses := []func(*testing.T) *durabilityHarness{
		durabilityMemHarness,
		durabilityTCPHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runCrashDurability(t, h)
		})
	}
}

func runCrashDurability(t *testing.T, h *durabilityHarness) {
	ctx := context.Background()
	cl := h.client

	if info, err := cl.Info(ctx); err != nil || info.Replicas != durabilityReplicas {
		t.Fatalf("client reports r=%d (err %v), want %d", info.Replicas, err, durabilityReplicas)
	}

	// Write keys covering every arc of the ring.
	const items = 30
	keys := make([]Key, items)
	vals := make([][]byte, items)
	var owners []OwnerRef
	for i := 0; i < items; i++ {
		keys[i] = KeyFromFloat(float64(i)/items + 0.005)
		vals[i] = []byte(fmt.Sprintf("durable-%d", i))
		put, err := cl.Put(ctx, keys[i], vals[i])
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		owners = append(owners, put.Owner)
	}

	// Kill the owner of one of the keys — any peer but the one serving the
	// client, so the client survives to observe the loss (or its absence).
	self, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i, o := range owners {
		if o.Addr != self.Self.Addr {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("every key owned by the client's own node")
	}
	h.kill(t, owners[victim])

	// After maintenance heals the ring, every key must still be readable
	// with its exact value: the owner's crash lost routing entries but no
	// data.
	deadline := time.Now().Add(20 * time.Second)
	for {
		lost := ""
		for i := range keys {
			got, err := cl.Get(ctx, keys[i])
			if err != nil {
				lost = fmt.Sprintf("key %d: %v", i, err)
				break
			}
			if !bytes.Equal(got.Value, vals[i]) {
				lost = fmt.Sprintf("key %d: value %q, want %q", i, got.Value, vals[i])
				break
			}
		}
		if lost == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("data lost after owner crash + heal: %s", lost)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// writeConcernHarness is one fabric under the write-concern contract: a
// client configured with r=3 and a default write concern of 2, a key
// whose owner's chain has exactly one member unable to acknowledge by the
// time the runner writes, and no background maintenance to repair the
// chain mid-assertion.
type writeConcernHarness struct {
	name   string
	client Client
	key    Key
	close  func()
}

const (
	writeConcernReplicas = 3
	writeConcernDefault  = 2
)

// liveWriteConcernHarness finds a key whose owner and first replica are
// both distinct from the client's node, then kills that first replica
// without letting maintenance repair the chain. closeAll tears the whole
// cluster down; it runs even when no suitable pair exists.
func liveWriteConcernHarness(t *testing.T, name string, clientNode *Node, nodes []*Node, closeAll func()) *writeConcernHarness {
	t.Helper()
	ctx := context.Background()
	for f := 0.05; f < 1; f += 0.09 {
		key := KeyFromFloat(f)
		res, err := clientNode.Lookup(ctx, key)
		if err != nil {
			closeAll()
			t.Fatal(err)
		}
		var owner *Node
		for _, n := range nodes {
			if n.Addr() == res.Owner.Addr {
				owner = n
			}
		}
		if owner == nil {
			continue
		}
		chain := owner.inner.SuccList()
		if len(chain) < writeConcernReplicas-1 || string(chain[0].Addr) == clientNode.Addr() {
			continue
		}
		for _, n := range nodes {
			if n.Addr() == string(chain[0].Addr) {
				_ = n.Close()
				return &writeConcernHarness{name: name, client: clientNode, key: key, close: closeAll}
			}
		}
	}
	closeAll()
	t.Fatal("no suitable key/victim pair found")
	return nil
}

func writeConcernMemHarness(t *testing.T) *writeConcernHarness {
	t.Helper()
	c, err := StartCluster(context.Background(), 10, WithSeed(14),
		WithReplicas(writeConcernReplicas),
		WithWriteConcern(writeConcernDefault),
		WithStabilizeRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	return liveWriteConcernHarness(t, "p2p/mem", c.Node(0), c.Nodes(), func() { _ = c.Close() })
}

func writeConcernTCPHarness(t *testing.T) *writeConcernHarness {
	t.Helper()
	ctx := context.Background()
	const size = 8
	var nodes []*Node
	for i := 0; i < size; i++ {
		n, err := StartNode(NodeConfig{
			Listen: "127.0.0.1:0",
			Key:    KeyFromFloat(float64(i)/size + 0.017),
			MaxIn:  8, MaxOut: 8,
			Replicas:     writeConcernReplicas,
			WriteConcern: writeConcernDefault,
			Seed:         int64(i),
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
	for round := 0; round < 5; round++ {
		for _, n := range nodes {
			n.Stabilize(ctx)
		}
	}
	return liveWriteConcernHarness(t, "p2p/tcp", nodes[0], nodes, func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
}

// TestWriteConcern is the write-concern contract on both fabrics: with r=3
// and one chain member gone, a write collects exactly two acks — the
// configured default w=2 succeeds, a per-call w=3 fails with
// ErrWriteConcern carrying the honest 2/3 counts, and an unsatisfied
// write still holds everywhere it was acknowledged instead of silently
// succeeding or silently disappearing.
func TestWriteConcern(t *testing.T) {
	harnesses := []func(*testing.T) *writeConcernHarness{
		writeConcernMemHarness,
		writeConcernTCPHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runWriteConcern(t, h)
		})
	}
}

func runWriteConcern(t *testing.T, h *writeConcernHarness) {
	ctx := context.Background()
	cl := h.client

	if info, err := cl.Info(ctx); err != nil || info.WriteConcern != writeConcernDefault {
		t.Fatalf("client reports w=%d (err %v), want %d", info.WriteConcern, err, writeConcernDefault)
	}

	// The configured default (w=2) is satisfiable by owner + the
	// surviving replica.
	put, err := cl.Put(ctx, h.key, []byte("wc-default"))
	if err != nil {
		t.Fatalf("put under default w=2 with one dead chain member: %v", err)
	}
	if put.Acks != 2 {
		t.Fatalf("put collected %d acks, want exactly 2 (owner + surviving replica)", put.Acks)
	}

	// A per-call w=3 cannot be: ErrWriteConcern with the honest counts.
	put, err = cl.Put(ContextWithWriteConcern(ctx, 3), h.key, []byte("wc-strict"))
	if !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("put w=3 = %v, want ErrWriteConcern", err)
	}
	var wce *WriteConcernError
	if !errors.As(err, &wce) {
		t.Fatalf("write-concern failure %v does not carry *WriteConcernError", err)
	}
	if wce.Acks != 2 || wce.Want != 3 {
		t.Fatalf("write-concern counts = %d/%d, want 2/3", wce.Acks, wce.Want)
	}
	if put.Acks != 2 {
		t.Fatalf("failed put reports %d acks, want 2", put.Acks)
	}

	// The unsatisfied write was not rolled back: it reads back.
	got, err := cl.Get(ctx, h.key)
	if err != nil || !bytes.Equal(got.Value, []byte("wc-strict")) {
		t.Fatalf("read after failed concern = %q, %v; the write must hold where acked", got.Value, err)
	}

	// Deletes enforce the same contract, and an unsatisfied delete also
	// holds where acked.
	del, err := cl.Delete(ContextWithWriteConcern(ctx, 3), h.key)
	if !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("delete w=3 = %v, want ErrWriteConcern", err)
	}
	if del.Acks != 2 {
		t.Fatalf("failed delete reports %d acks, want 2", del.Acks)
	}
	if _, err := cl.Get(ctx, h.key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after failed-concern delete = %v, want ErrNotFound (the delete held where acked)", err)
	}
}

// readRepairHarness is one fabric under the read-repair contract: keys
// sharing one owner written with r=3, a hook that silently erases some of
// them from the owner's primary shard, and visibility into the healing
// side's repair stats and shard.
type readRepairHarness struct {
	name   string
	client Client
	keys   []Key
	// dropPrimary erases the keys from the owner's primary shard behind
	// the protocol's back — the fault read-repair exists to recover from.
	dropPrimary func(keys []Key)
	// stats returns the healing side's accumulated anti-entropy stats.
	stats func() SyncStats
	// ownerHas reports whether the owner's primary shard holds the key.
	ownerHas func(k Key) bool
	close    func()
}

const readRepairReplicas = 3

// liveReadRepairHarness picks an owner whose arc comfortably holds a run
// of keys below its identifier, writes nothing itself (the runner does),
// and wires the fault-injection and observation hooks to that owner.
func liveReadRepairHarness(t *testing.T, name string, nodes []*Node, closeAll func()) *readRepairHarness {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		for _, n := range nodes {
			n.Stabilize(ctx)
		}
	}
	client := nodes[0]
	var owner *Node
	for _, n := range nodes[1:] {
		res, err := client.Lookup(ctx, n.Key()-8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner.Addr == n.Addr() {
			owner = n
			break
		}
	}
	if owner == nil {
		t.Fatal("no node owns a wide enough arc")
	}
	keys := make([]Key, 6)
	for i := range keys {
		keys[i] = owner.Key() - Key(i)
	}
	toSync := func(st p2p.SyncStats) SyncStats {
		return SyncStats{
			Rounds:           st.Rounds,
			KeysPushed:       st.KeysPushed,
			TombstonesPushed: st.TombsPushed,
			Dropped:          st.Dropped,
		}
	}
	return &readRepairHarness{
		name:   name,
		client: client,
		keys:   keys,
		dropPrimary: func(ks []Key) {
			for _, k := range ks {
				owner.inner.DropPrimary(k)
			}
		},
		stats: func() SyncStats { return toSync(owner.inner.SyncTotals()) },
		ownerHas: func(k Key) bool {
			_, ok := owner.inner.PrimaryValue(k)
			return ok
		},
		close: closeAll,
	}
}

func readRepairMemHarness(t *testing.T) *readRepairHarness {
	t.Helper()
	c, err := StartCluster(context.Background(), 10, WithSeed(17), WithReplicas(readRepairReplicas))
	if err != nil {
		t.Fatal(err)
	}
	return liveReadRepairHarness(t, "p2p/mem", c.Nodes(), func() { _ = c.Close() })
}

func readRepairTCPHarness(t *testing.T) *readRepairHarness {
	t.Helper()
	ctx := context.Background()
	const size = 7
	var nodes []*Node
	for i := 0; i < size; i++ {
		n, err := StartNode(NodeConfig{
			Listen: "127.0.0.1:0",
			Key:    KeyFromFloat(float64(i)/size + 0.027),
			MaxIn:  8, MaxOut: 8,
			Replicas: readRepairReplicas,
			Seed:     int64(i),
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
	return liveReadRepairHarness(t, "p2p/tcp", nodes, func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
}

// TestReadRepair is the read-repair contract on both fabrics: an owner that
// silently lost part of its arc still serves those reads through the
// chain fallback, and the first such read heals the owner — with repair
// stats equal to the exact divergence, visible through the same counters
// as scheduled anti-entropy.
func TestReadRepair(t *testing.T) {
	harnesses := []func(*testing.T) *readRepairHarness{
		readRepairMemHarness,
		readRepairTCPHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runReadRepair(t, h)
		})
	}
}

func runReadRepair(t *testing.T, h *readRepairHarness) {
	ctx := context.Background()
	cl := h.client

	// All keys must share one owner — the harness promised it.
	first, err := cl.Lookup(ctx, h.keys[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range h.keys[1:] {
		got, err := cl.Lookup(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Owner.Key != first.Owner.Key {
			t.Fatalf("harness keys span owners (%v vs %v)", got.Owner, first.Owner)
		}
	}

	vals := make([][]byte, len(h.keys))
	for i := range h.keys {
		vals[i] = []byte(fmt.Sprintf("repair-%d", i))
		if _, err := cl.Put(ctx, h.keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	base := h.stats()

	// The owner silently loses two keys (divergence = 2).
	h.dropPrimary(h.keys[:2])

	// The fallback read still serves the right value, from a replica.
	got, err := cl.Get(ctx, h.keys[0])
	if err != nil || !bytes.Equal(got.Value, vals[0]) {
		t.Fatalf("fallback read = %q, %v; want the replica's copy", got.Value, err)
	}

	// ...and heals the owner: both lost keys return to its shard, and the
	// repair moved exactly the divergence (2 keys, no tombstones, no
	// drops). Repair runs asynchronously, so poll.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := h.stats()
		if h.ownerHas(h.keys[0]) && h.ownerHas(h.keys[1]) && st.KeysPushed-base.KeysPushed >= 2 {
			if pushed := st.KeysPushed - base.KeysPushed; pushed != 2 {
				t.Fatalf("read-repair pushed %d keys, want exactly the divergence (2)", pushed)
			}
			if tombs := st.TombstonesPushed - base.TombstonesPushed; tombs != 0 {
				t.Fatalf("read-repair pushed %d tombstones, want 0", tombs)
			}
			if dropped := st.Dropped - base.Dropped; dropped != 0 {
				t.Fatalf("read-repair dropped %d keys, want 0", dropped)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never healed (stats delta %+v, has0=%v has1=%v)",
				SyncStats{
					Rounds:           st.Rounds - base.Rounds,
					KeysPushed:       st.KeysPushed - base.KeysPushed,
					TombstonesPushed: st.TombstonesPushed - base.TombstonesPushed,
					Dropped:          st.Dropped - base.Dropped,
				}, h.ownerHas(h.keys[0]), h.ownerHas(h.keys[1]))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every key reads back with its exact value after the heal.
	for i := range h.keys {
		got, err := cl.Get(ctx, h.keys[i])
		if err != nil || !bytes.Equal(got.Value, vals[i]) {
			t.Fatalf("key %d after repair = %q, %v; want %q", i, got.Value, err, vals[i])
		}
	}
}

// TestScanChurn is the mid-scan churn contract: a paged scan whose serving
// arc owner is killed between pages resumes through the owner's replica
// chain — the cursor loses nothing and duplicates nothing. It reuses the
// crash-durability harnesses (r=3, auto-maintenance on the live fabrics)
// and forces tiny pages so the kill lands between fetches.
func TestScanChurn(t *testing.T) {
	harnesses := []func(*testing.T) *durabilityHarness{
		durabilityMemHarness,
		durabilityTCPHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runScanChurn(t, h)
		})
	}
}

func runScanChurn(t *testing.T, h *durabilityHarness) {
	ctx := context.Background()
	cl := h.client

	self, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Items across most of the circle, replicated with r=3.
	const items = 40
	lo, hi := KeyFromFloat(0.05), KeyFromFloat(0.95)
	want := make(map[Key]byte, items)
	for i := 0; i < items; i++ {
		k := KeyFromFloat(0.05 + 0.9*float64(i)/items)
		if _, err := cl.Put(ctx, k, []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[k] = byte(i)
	}

	// Stream with 3-item pages; a third of the way in, kill the peer that
	// owns the very next cursor position — the one serving the current
	// shard, whose replica chain the session learned when it routed there.
	sc := cl.Scan(ctx, lo, hi, WithPageSize(3))
	seen := make(map[Key]byte, items)
	var prev Key
	killed := false
	count := 0
	for sc.Next() {
		it := sc.Item()
		if _, dup := seen[it.Key]; dup {
			t.Fatalf("key %v streamed twice", it.Key)
		}
		wantVal, ok := want[it.Key]
		if !ok {
			t.Fatalf("stray key %v in scan", it.Key)
		}
		if len(it.Value) != 1 || it.Value[0] != wantVal {
			t.Fatalf("key %v = %v, want [%d]", it.Key, it.Value, wantVal)
		}
		if count > 0 && lo.Distance(it.Key) <= lo.Distance(prev) {
			t.Fatalf("scan out of clockwise order: %v after %v", it.Key, prev)
		}
		seen[it.Key] = it.Value[0]
		prev = it.Key
		count++
		if !killed && count >= items/3 {
			route, err := cl.Lookup(ctx, it.Key+1)
			if err != nil {
				t.Fatalf("lookup next cursor: %v", err)
			}
			// Never kill the node serving the client; try again one item
			// later — some other peer owns the rest of the range.
			if route.Owner.Addr != self.Self.Addr {
				h.kill(t, route.Owner)
				killed = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan failed after churn (streamed %d items): %v", count, err)
	}
	if !killed {
		t.Fatal("never found a victim to kill — scenario did not exercise churn")
	}
	if count != items {
		missing := 0
		for k := range want {
			if _, ok := seen[k]; !ok {
				missing++
			}
		}
		t.Fatalf("scan under churn returned %d/%d items (%d missing)", count, items, missing)
	}
}
