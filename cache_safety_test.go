package oscar

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestCacheStaleSafety is the cache contract on both fabrics: with the route
// cache on (the default), a crash that moves arcs must never produce a
// stale answer — post-crash writes re-resolve their routes, overwritten
// values win immediately, and deletes do not resurrect. It reuses the main
// conformance table's harnesses.
func TestCacheStaleSafety(t *testing.T) {
	harnesses := []func(*testing.T) *conformanceHarness{
		memClusterHarness,
		tcpClusterHarness,
	}
	for _, mk := range harnesses {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			defer h.close()
			runCacheStaleSafety(t, h)
		})
	}
}

func runCacheStaleSafety(t *testing.T, h *conformanceHarness) {
	ctx := context.Background()
	cl := h.client
	const keys = 24
	key := func(i int) Key { return KeyFromFloat(float64(i)/keys + 0.004) }
	val := func(gen string, i int) []byte { return []byte(fmt.Sprintf("%s-%d", gen, i)) }

	for i := 0; i < keys; i++ {
		if _, err := cl.Put(ctx, key(i), val("v1", i)); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
	}
	// Prime the route cache with one read per key.
	for i := 0; i < keys; i++ {
		got, err := cl.Get(ctx, key(i))
		if err != nil {
			t.Fatalf("prime get %d: %v", i, err)
		}
		if string(got.Value) != string(val("v1", i)) {
			t.Fatalf("prime get %d = %q", i, got.Value)
		}
	}

	// Kill a minority of peers and heal: a fifth of the cached routes now
	// name corpses or peers whose arcs moved.
	h.crash()

	// Stale routes must re-resolve, not serve through a corpse: every
	// post-crash write lands on the healed ring and reads back fresh.
	for i := 0; i < keys; i++ {
		if _, err := cl.Put(ctx, key(i), val("v2", i)); err != nil {
			t.Fatalf("post-crash put %d: %v", i, err)
		}
	}
	for i := 0; i < keys; i++ {
		got, err := cl.Get(ctx, key(i))
		if err != nil {
			t.Fatalf("post-crash get %d: %v", i, err)
		}
		if string(got.Value) != string(val("v2", i)) {
			t.Fatalf("post-crash get %d = %q, want %q — a stale cached answer", i, got.Value, val("v2", i))
		}
	}

	// Freshness: an overwrite must win on the very next read, and a delete
	// must not resurrect.
	for i := 0; i < keys; i++ {
		if _, err := cl.Put(ctx, key(i), val("v3", i)); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
		got, err := cl.Get(ctx, key(i))
		if err != nil || string(got.Value) != string(val("v3", i)) {
			t.Fatalf("read after overwrite %d = %q (%v), want %q", i, got.Value, err, val("v3", i))
		}
		if _, err := cl.Delete(ctx, key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if _, err := cl.Get(ctx, key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d: get = %v, want ErrNotFound (cache resurrection)", i, err)
		}
	}

	// The route cache's counters surface through Info.
	info, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.RouteCacheHits+info.RouteCacheMisses == 0 {
		t.Error("route cache counters never moved")
	}
}
