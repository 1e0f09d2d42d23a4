package routecache

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

func k(i int) keyspace.Key { return keyspace.Key(i) }

func TestPutGet(t *testing.T) {
	c := New[string](4, 0)
	c.Put(k(1), "a")
	c.Put(k(2), "b")
	if v, ok := c.Get(k(1)); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := c.Get(k(3)); ok {
		t.Fatal("Get(3) hit on absent key")
	}
	c.Put(k(1), "a2")
	if v, _ := c.Get(k(1)); v != "a2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](3, 0)
	for i := 1; i <= 3; i++ {
		c.Put(k(i), i)
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(k(4), 4)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("LRU entry 2 survived past capacity")
	}
	for _, want := range []int{1, 3, 4} {
		if _, ok := c.Get(k(want)); !ok {
			t.Fatalf("entry %d evicted wrongly", want)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string](4, time.Second)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put(k(1), "a")
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not removed")
	}
	// A refresh restarts the TTL.
	c.Put(k(1), "b")
	now = now.Add(900 * time.Millisecond)
	c.Put(k(1), "c")
	now = now.Add(900 * time.Millisecond)
	if v, ok := c.Get(k(1)); !ok || v != "c" {
		t.Fatalf("refreshed entry = %q, %v; want live \"c\"", v, ok)
	}
}

func TestInvalidate(t *testing.T) {
	c := New[int](8, 0)
	for i := 0; i < 6; i++ {
		c.Put(k(i), i)
	}
	c.Invalidate(k(2))
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("invalidated entry served")
	}
	c.InvalidateMatching(func(_ keyspace.Key, v int) bool { return v%2 == 1 })
	// Evens 0 and 4 survive (2 was invalidated above); odds 1,3,5 matched.
	if c.Len() != 2 {
		t.Fatalf("Len after InvalidateMatching = %d, want 2", c.Len())
	}
	for _, want := range []int{0, 4} {
		if _, ok := c.Get(k(want)); !ok {
			t.Fatalf("entry %d wrongly dropped", want)
		}
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("Flush left entries behind")
	}
}

// arc is the clockwise arc [start, end).
func arc(start, end keyspace.Key) keyspace.Range { return keyspace.Range{Start: start, End: end} }

// wantHits asserts which of keys c serves, and with what.
func wantHits(t *testing.T, c *Cache[string], want map[keyspace.Key]string, keys ...keyspace.Key) {
	t.Helper()
	for _, key := range keys {
		v, ok := c.Get(key)
		if w, in := want[key]; in != ok || v != w {
			t.Errorf("Get(%d) = %q, %v; want %q, %v", key, v, ok, w, in)
		}
	}
}

func TestArcServesEveryKey(t *testing.T) {
	c := New[string](4, 0)
	c.PutArc(arc(10, 20), "a")
	wantHits(t, c, map[keyspace.Key]string{10: "a", 15: "a", 19: "a"}, 9, 10, 15, 19, 20)
	// An identical arc refreshes the entry in place.
	c.PutArc(arc(10, 20), "a2")
	if v, _ := c.Get(12); v != "a2" || c.Len() != 1 {
		t.Fatalf("refresh: Get(12) = %q with %d entries, want a2 and 1", v, c.Len())
	}
}

func TestArcWrapsPastZero(t *testing.T) {
	c := New[string](4, 0)
	c.PutArc(arc(keyspace.MaxKey-4, 5), "wrap")
	c.PutArc(arc(100, 200), "mid")
	c.Put(keyspace.MaxKey-10, "one")
	wantHits(t, c, map[keyspace.Key]string{
		keyspace.MaxKey - 4: "wrap", keyspace.MaxKey: "wrap", 0: "wrap", 4: "wrap",
		150: "mid", keyspace.MaxKey - 10: "one",
	}, keyspace.MaxKey-5, keyspace.MaxKey-4, keyspace.MaxKey, 0, 4, 5, 99, 150, 200, keyspace.MaxKey-10)
	// An arc ending exactly at the wrap point holds MaxKey and not 0.
	c.PutArc(arc(keyspace.MaxKey-1, 0), "tail")
	wantHits(t, c, map[keyspace.Key]string{keyspace.MaxKey: "tail", keyspace.MaxKey - 1: "tail", 150: "mid", keyspace.MaxKey - 10: "one"},
		keyspace.MaxKey, keyspace.MaxKey-1, keyspace.MaxKey-4, 0, 150, keyspace.MaxKey-10)
}

func TestOneKeyEntriesBesideArcs(t *testing.T) {
	c := New[string](8, 0)
	c.Put(5, "k5")
	c.PutArc(arc(10, 20), "a")
	c.Put(25, "k25")
	c.Put(keyspace.MaxKey, "kmax")
	wantHits(t, c, map[keyspace.Key]string{5: "k5", 10: "a", 19: "a", 25: "k25", keyspace.MaxKey: "kmax"},
		4, 5, 6, 9, 10, 19, 20, 24, 25, 26, keyspace.MaxKey, 0)
	// A one-key entry inside a cached arc replaces it: the arc is known
	// to be stale at that key.
	c.Put(15, "k15")
	wantHits(t, c, map[keyspace.Key]string{5: "k5", 15: "k15", 25: "k25"}, 5, 10, 14, 15, 16, 25)
}

func TestArcReplacesOverlaps(t *testing.T) {
	t.Run("narrower replaces wider", func(t *testing.T) {
		c := New[string](8, 0)
		c.PutArc(arc(0, 100), "wide")
		c.PutArc(arc(200, 300), "other")
		c.PutArc(arc(40, 60), "narrow")
		wantHits(t, c, map[keyspace.Key]string{40: "narrow", 59: "narrow", 250: "other"}, 0, 39, 40, 59, 60, 99, 250)
		if c.Len() != 2 {
			t.Fatalf("Len = %d, want 2", c.Len())
		}
	})
	t.Run("wider replaces narrower", func(t *testing.T) {
		c := New[string](8, 0)
		c.PutArc(arc(10, 20), "n1")
		c.PutArc(arc(30, 40), "n2")
		c.Put(50, "k50")
		c.PutArc(arc(60, 70), "outside")
		c.PutArc(arc(15, 55), "wide")
		wantHits(t, c, map[keyspace.Key]string{15: "wide", 35: "wide", 50: "wide", 54: "wide", 65: "outside"}, 10, 14, 15, 35, 50, 54, 55, 65)
		if c.Len() != 2 {
			t.Fatalf("Len = %d, want 2", c.Len())
		}
	})
	t.Run("wrapping arc drops both ends", func(t *testing.T) {
		c := New[string](8, 0)
		c.Put(keyspace.MaxKey-1, "hi")
		c.Put(1, "lo")
		c.Put(50, "mid")
		c.PutArc(arc(keyspace.MaxKey-2, 3), "wrap")
		wantHits(t, c, map[keyspace.Key]string{keyspace.MaxKey - 1: "wrap", 1: "wrap", 50: "mid"}, keyspace.MaxKey-1, 1, 50)
	})
	t.Run("full range takes the circle", func(t *testing.T) {
		c := New[string](8, 0)
		c.PutArc(arc(10, 20), "a")
		c.Put(keyspace.MaxKey, "b")
		c.PutArc(keyspace.FullRange(), "all")
		wantHits(t, c, map[keyspace.Key]string{0: "all", 15: "all", keyspace.MaxKey: "all"}, 0, 15, keyspace.MaxKey)
		c.PutArc(arc(10, 20), "a")
		wantHits(t, c, map[keyspace.Key]string{10: "a"}, 0, 10)
	})
}

func TestInvalidateDropsContainingArc(t *testing.T) {
	c := New[string](8, 0)
	c.PutArc(arc(0, 10), "a")
	c.PutArc(arc(10, 20), "b")
	c.PutArc(arc(20, 30), "c")
	c.Invalidate(15)
	wantHits(t, c, map[keyspace.Key]string{0: "a", 9: "a", 20: "c", 29: "c"}, 0, 9, 10, 15, 19, 20, 29)
	c.Invalidate(35) // contained by nothing: a no-op
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestArcLRUEviction(t *testing.T) {
	c := New[string](3, 0)
	c.PutArc(arc(0, 10), "a")
	c.PutArc(arc(10, 20), "b")
	c.PutArc(arc(20, 30), "c")
	if _, ok := c.Get(5); !ok { // a becomes most recent, b the victim
		t.Fatal("warm arc missing")
	}
	c.PutArc(arc(30, 40), "d")
	wantHits(t, c, map[keyspace.Key]string{5: "a", 25: "c", 35: "d"}, 5, 15, 25, 35)
	// Dropping overlaps frees room: no eviction.
	c.PutArc(arc(20, 40), "cd")
	c.Put(50, "e")
	wantHits(t, c, map[keyspace.Key]string{5: "a", 25: "cd", 50: "e"}, 5, 25, 50)
}

func TestArcTTLExpiry(t *testing.T) {
	c := New[string](4, time.Second)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.PutArc(arc(100, 200), "a")
	now = now.Add(900 * time.Millisecond)
	if _, ok := c.Get(150); !ok {
		t.Fatal("fresh arc missing")
	}
	now = now.Add(200 * time.Millisecond)
	if _, ok := c.Get(199); ok {
		t.Fatal("expired arc served")
	}
	if c.Len() != 0 {
		t.Fatal("expired arc not removed")
	}
}

// TestArcModel checks random arc inserts, lookups and invalidations near
// the wrap point against a brute-force list of non-overlapping arcs.
func TestArcModel(t *testing.T) {
	type modelEntry struct {
		arc keyspace.Range
		val int
	}
	rng := rand.New(rand.NewSource(3))
	key := func() keyspace.Key { return keyspace.Key(rng.Intn(64)) - 32 } // wraps past 0
	c := New[int](1<<10, 0)
	var model []modelEntry
	find := func(k keyspace.Key) int {
		for i, e := range model {
			if e.arc.Contains(k) {
				return i
			}
		}
		return -1
	}
	for step := 0; step < 20000; step++ {
		switch k := key(); rng.Intn(3) {
		case 0:
			a := arc(k, k+1+keyspace.Key(rng.Intn(12)))
			kept := model[:0]
			for _, e := range model {
				if !overlaps(e.arc, a) {
					kept = append(kept, e)
				}
			}
			model = append(kept, modelEntry{a, step})
			c.PutArc(a, step)
		case 1:
			if i := find(k); i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
			c.Invalidate(k)
		default:
			got, ok := c.Get(k)
			i := find(k)
			if ok != (i >= 0) || (ok && got != model[i].val) {
				t.Fatalf("step %d: Get(%d) = %d, %v; model holds %+v", step, int64(k), got, ok, model)
			}
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, c.Len(), len(model))
		}
	}
}

// TestConcurrentUse drives every method from several goroutines at once;
// run it under -race. The arcs must stay disjoint throughout.
func TestConcurrentUse(t *testing.T) {
	c := New[int](16, time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := keyspace.Key(rng.Intn(256))
				switch rng.Intn(6) {
				case 0:
					c.PutArc(arc(k, k+keyspace.Key(1+rng.Intn(8))), g)
				case 1:
					c.Put(k, g)
				case 2:
					c.Invalidate(k)
				case 3:
					c.InvalidateMatching(func(_ keyspace.Key, v int) bool { return v == g })
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 1; i < len(c.byLast); i++ {
		a, b := c.byLast[i-1].el.Value.(*entry[int]).arc, c.byLast[i].el.Value.(*entry[int]).arc
		if c.byLast[i-1].last >= c.byLast[i].last || overlaps(a, b) {
			t.Fatalf("index out of order or overlapping at %d: %v, %v", i, a, b)
		}
	}
	if len(c.byLast) != c.ll.Len() || c.ll.Len() > 16 {
		t.Fatalf("index holds %d, list %d, cap 16", len(c.byLast), c.ll.Len())
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache[string]
	if c != New[string](0, 0) || c != New[string](-1, 0) {
		t.Fatal("non-positive capacity must return the nil cache")
	}
	c.Put(k(1), "a")
	c.PutArc(keyspace.Range{Start: 0, End: 10}, "a")
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("nil cache served a value")
	}
	c.Invalidate(k(1))
	c.InvalidateMatching(func(keyspace.Key, string) bool { return true })
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("nil cache reports non-empty state")
	}
}
