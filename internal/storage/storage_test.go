package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
)

func TestPutGetDelete(t *testing.T) {
	var s Store
	if replaced := s.Put(10, []byte("a")); replaced {
		t.Error("first put cannot replace")
	}
	if replaced := s.Put(10, []byte("b")); !replaced {
		t.Error("second put must replace")
	}
	v, ok := s.Get(10)
	if !ok || !bytes.Equal(v, []byte("b")) {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get(11); ok {
		t.Error("missing key found")
	}
	if !s.Delete(10) {
		t.Error("delete failed")
	}
	if s.Delete(10) {
		t.Error("double delete succeeded")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestItemsSorted(t *testing.T) {
	var s Store
	for _, k := range []keyspace.Key{50, 10, 30, 20, 40} {
		s.Put(k, nil)
	}
	items := s.Items()
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i].Key < items[j].Key }) {
		t.Errorf("items out of order: %v", items)
	}
	if len(items) != 5 {
		t.Errorf("len = %d", len(items))
	}
}

func TestPutSortedProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		var s Store
		uniq := map[uint64]bool{}
		for _, k := range keys {
			s.Put(keyspace.Key(k), nil)
			uniq[k] = true
		}
		items := s.Items()
		if len(items) != len(uniq) {
			return false
		}
		for i := 1; i < len(items); i++ {
			if items[i-1].Key >= items[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanPlainRange(t *testing.T) {
	var s Store
	for k := keyspace.Key(0); k < 100; k += 10 {
		s.Put(k, nil)
	}
	got := scanKeys(&s, keyspace.Range{Start: 25, End: 65})
	want := []keyspace.Key{30, 40, 50, 60}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestScanWrappingRange(t *testing.T) {
	var s Store
	for _, k := range []keyspace.Key{5, 50, keyspace.MaxKey - 5} {
		s.Put(k, nil)
	}
	got := scanKeys(&s, keyspace.Range{Start: keyspace.MaxKey - 10, End: 10})
	if len(got) != 2 || got[0] != keyspace.MaxKey-5 || got[1] != 5 {
		t.Errorf("wrapping scan = %v", got)
	}
}

func TestScanFullRange(t *testing.T) {
	var s Store
	for k := keyspace.Key(0); k < 50; k += 10 {
		s.Put(k, nil)
	}
	if got := scanKeys(&s, keyspace.FullRange()); len(got) != 5 {
		t.Errorf("full scan returned %v", got)
	}
}

func TestScanEmptyStore(t *testing.T) {
	var s Store
	if items, more := s.ScanPage(keyspace.FullRange(), 0, 0); len(items) != 0 || more {
		t.Fatalf("empty store scanned %d items, more=%v", len(items), more)
	}
}

// scanKeys returns the keys of every item in rg, in scan order, as one
// uncapped page.
func scanKeys(s *Store, rg keyspace.Range) []keyspace.Key {
	items, _ := s.ScanPage(rg, 0, 0)
	keys := make([]keyspace.Key, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	return keys
}

func TestExtractRange(t *testing.T) {
	var s Store
	for k := keyspace.Key(0); k < 100; k += 10 {
		s.Put(k, []byte{byte(k)})
	}
	moved := s.ExtractRange(keyspace.Range{Start: 30, End: 60})
	if len(moved) != 3 { // 30, 40, 50
		t.Fatalf("moved %d items", len(moved))
	}
	if s.Len() != 7 {
		t.Errorf("kept %d items", s.Len())
	}
	if _, ok := s.Get(40); ok {
		t.Error("extracted item still present")
	}
	var dst Store
	dst.InsertBulk(moved)
	if v, ok := dst.Get(40); !ok || !bytes.Equal(v, []byte{40}) {
		t.Error("migration lost data")
	}
}

func TestExtractInsertRoundTripProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var s Store
		n := 1 + rnd.Intn(100)
		for i := 0; i < n; i++ {
			s.Put(keyspace.Key(rnd.Uint64()), nil)
		}
		before := s.Len()
		rg := keyspace.Range{Start: keyspace.Key(rnd.Uint64()), End: keyspace.Key(rnd.Uint64())}
		if rg.Start == rg.End {
			continue
		}
		var dst Store
		dst.InsertBulk(s.ExtractRange(rg))
		if s.Len()+dst.Len() != before {
			t.Fatalf("items lost in migration: %d + %d != %d", s.Len(), dst.Len(), before)
		}
		// Nothing left in the source belongs to the range.
		if left := scanKeys(&s, rg); len(left) > 0 {
			t.Fatalf("items %v left behind in extracted range", left)
		}
	}
}

func TestExtractRangeLimit(t *testing.T) {
	var s Store
	s.EnableDigest(8)
	for i := 0; i < 10; i++ {
		s.Put(keyspace.Key(100+i), []byte{byte(i)})
	}
	rg := keyspace.Range{Start: 100, End: 110}

	// Item cap: clockwise chunks of 4, More set until the range drains.
	got, more := s.ExtractRangeLimit(rg, 4, 0)
	if len(got) != 4 || !more {
		t.Fatalf("first chunk = %d items, more=%v; want 4, true", len(got), more)
	}
	for i, it := range got {
		if it.Key != keyspace.Key(100+i) {
			t.Fatalf("chunk out of clockwise order: item %d has key %v", i, it.Key)
		}
	}
	got, more = s.ExtractRangeLimit(rg, 4, 0)
	if len(got) != 4 || !more || got[0].Key != 104 {
		t.Fatalf("second chunk = %d items from %v, more=%v; want 4 from 104, true", len(got), got[0].Key, more)
	}
	got, more = s.ExtractRangeLimit(rg, 4, 0)
	if len(got) != 2 || more {
		t.Fatalf("final chunk = %d items, more=%v; want 2, false", len(got), more)
	}
	if s.Len() != 0 {
		t.Fatalf("%d items left after draining the range", s.Len())
	}
	// The maintained digest tracked every removal: an emptied store
	// digests as empty.
	if diff := antientropy.DiffLeaves(s.DigestLeaves(), nil); len(diff) != 0 {
		t.Fatalf("digest out of sync after chunked extraction: %d buckets differ", len(diff))
	}

	// Byte cap: at least one item always moves, then the cap closes the
	// chunk.
	for i := 0; i < 4; i++ {
		s.Put(keyspace.Key(200+i), make([]byte, 100))
	}
	rg = keyspace.Range{Start: 200, End: 210}
	got, more = s.ExtractRangeLimit(rg, 0, 250)
	if len(got) != 2 || !more {
		t.Fatalf("byte-capped chunk = %d items, more=%v; want 2, true", len(got), more)
	}
	got, more = s.ExtractRangeLimit(rg, 0, 50) // cap below one item
	if len(got) != 1 || !more {
		t.Fatalf("tiny byte cap must still move one item: %d items, more=%v", len(got), more)
	}

	// Wrap-around range: extraction runs clockwise from Start across the
	// top of the circle.
	var w Store
	w.Put(5, []byte("low"))
	w.Put(^keyspace.Key(0)-1, []byte("high"))
	got, more = w.ExtractRangeLimit(keyspace.Range{Start: ^keyspace.Key(0) - 2, End: 10}, 1, 0)
	if len(got) != 1 || !more || got[0].Key != ^keyspace.Key(0)-1 {
		t.Fatalf("wrap-around chunk = %+v, more=%v; want the high key first", got, more)
	}
}

func TestScanPage(t *testing.T) {
	var s Store
	for i := 0; i < 10; i++ {
		s.Put(keyspace.Key(100+i), []byte{byte(i)})
	}
	rg := keyspace.Range{Start: 100, End: 110}

	// Item cap: clockwise pages of 4, More until the range is covered —
	// and unlike extraction, the store is untouched.
	got, more := s.ScanPage(rg, 4, 0)
	if len(got) != 4 || !more || got[0].Key != 100 {
		t.Fatalf("first page = %d items from %v, more=%v; want 4 from 100, true", len(got), got[0].Key, more)
	}
	got, more = s.ScanPage(keyspace.Range{Start: got[3].Key + 1, End: 110}, 0, 0)
	if len(got) != 6 || more || got[0].Key != 104 {
		t.Fatalf("rest = %d items, more=%v; want 6, false", len(got), more)
	}
	if s.Len() != 10 {
		t.Fatalf("scan mutated the store: %d items left", s.Len())
	}

	// Byte cap: at least one item per page, even under a tiny cap.
	var b Store
	for i := 0; i < 4; i++ {
		b.Put(keyspace.Key(200+i), make([]byte, 100))
	}
	got, more = b.ScanPage(keyspace.Range{Start: 200, End: 210}, 0, 250)
	if len(got) != 2 || !more {
		t.Fatalf("byte-capped page = %d items, more=%v; want 2, true", len(got), more)
	}
	got, more = b.ScanPage(keyspace.Range{Start: 200, End: 210}, 0, 50)
	if len(got) != 1 || !more {
		t.Fatalf("tiny byte cap must still return one item: %d, more=%v", len(got), more)
	}

	// A deleted key is invisible to pages.
	s.Delete(105)
	got, _ = s.ScanPage(rg, 0, 0)
	if len(got) != 9 {
		t.Fatalf("page after delete = %d items, want 9", len(got))
	}
}

func TestScanPageMerged(t *testing.T) {
	var primary, fallback Store
	// Primary owns evens, fallback (a replica view) holds odds plus a
	// stale copy of key 102 that must lose to the primary.
	for i := 100; i < 110; i += 2 {
		primary.Put(keyspace.Key(i), []byte("p"))
	}
	for i := 101; i < 110; i += 2 {
		fallback.Put(keyspace.Key(i), []byte("f"))
	}
	fallback.Put(102, []byte("stale"))

	rg := keyspace.Range{Start: 100, End: 110}
	got, more := ScanPageMerged(&primary, &fallback, rg, 0, 0)
	if more {
		t.Fatal("small merged range reported more")
	}
	if len(got) != 10 {
		t.Fatalf("merged = %d items, want 10", len(got))
	}
	for i, it := range got {
		if it.Key != keyspace.Key(100+i) {
			t.Fatalf("merged out of order at %d: key %v", i, it.Key)
		}
	}
	if !bytes.Equal(got[2].Value, []byte("p")) {
		t.Fatalf("primary must win duplicate key 102, got %q", got[2].Value)
	}

	// A primary tombstone hides the fallback's copy entirely.
	primary.Put(103, []byte("x"))
	primary.Delete(103)
	got, _ = ScanPageMerged(&primary, &fallback, rg, 0, 0)
	for _, it := range got {
		if it.Key == 103 {
			t.Fatalf("tombstoned key 103 leaked from the fallback: %q", it.Value)
		}
	}
	if len(got) != 9 {
		t.Fatalf("merged after tombstone = %d items, want 9", len(got))
	}

	// More is exact: a page cut right before only-tombstoned or
	// duplicate leftovers must not claim more.
	got, more = ScanPageMerged(&primary, &fallback, rg, 9, 0)
	if len(got) != 9 || more {
		t.Fatalf("page of 9 = %d items, more=%v; want 9, false", len(got), more)
	}

	// Paged resume via cursor covers everything exactly once.
	var all []Item
	cursor := keyspace.Key(100)
	for {
		page, more := ScanPageMerged(&primary, &fallback, keyspace.Range{Start: cursor, End: 110}, 3, 0)
		all = append(all, page...)
		if !more {
			break
		}
		cursor = page[len(page)-1].Key + 1
	}
	if len(all) != 9 {
		t.Fatalf("cursor walk = %d items, want 9", len(all))
	}

	// Nil / empty stores are fine on either side.
	// (Without a primary there is no tombstone for 103 and no duplicate
	// winner for 102, so all 6 fallback items are live.)
	if got, _ := ScanPageMerged(nil, &fallback, rg, 0, 0); len(got) != 6 {
		t.Fatalf("nil primary = %d items, want all 6 fallback items", len(got))
	}
	if got, _ := ScanPageMerged(&primary, nil, rg, 0, 0); len(got) != 5 {
		t.Fatalf("nil fallback = %d items, want the primary's 5", len(got))
	}

	// Wrap-around merged range.
	var hi, lo Store
	hi.Put(^keyspace.Key(0)-1, []byte("high"))
	lo.Put(3, []byte("low"))
	got, _ = ScanPageMerged(&hi, &lo, keyspace.Range{Start: ^keyspace.Key(0) - 5, End: 10}, 0, 0)
	if len(got) != 2 || got[0].Key != ^keyspace.Key(0)-1 || got[1].Key != 3 {
		t.Fatalf("wrap-around merged = %+v", got)
	}
}

// BenchmarkStore times one digest-enabled store at fixed sizes: a hit, an
// in-place overwrite, a new key's insert plus its removal (so the size
// holds), one ScanPageMerged page of PageMaxItems from a stored key, and
// filling an empty store to the size, as a preload or a replay does.
// Fixed sizes keep per-op costs comparable across store layouts, where a
// probe that inserts for a fixed time measures a bigger store the faster
// inserts get.
func BenchmarkStore(b *testing.B) {
	for _, size := range []int{1000, 10000, 50000} {
		rnd := rand.New(rand.NewSource(5))
		var s, empty Store
		s.EnableDigest(antientropy.DefaultDepth)
		keys := make([]keyspace.Key, size)
		val := make([]byte, 64)
		for i := range keys {
			keys[i] = keyspace.Key(rnd.Uint64())
			s.Put(keys[i], val)
		}
		fresh := make([]keyspace.Key, 4096)
		for i := range fresh {
			fresh[i] = keyspace.Key(rnd.Uint64())
		}
		b.Run(fmt.Sprintf("items=%d/get", size), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				s.Get(keys[i%size])
			}
		})
		b.Run(fmt.Sprintf("items=%d/put-replace", size), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				s.Put(keys[i%size], val)
			}
		})
		b.Run(fmt.Sprintf("items=%d/insert-remove", size), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				k := fresh[i%len(fresh)]
				s.Put(k, val)
				s.Drop(k)
			}
		})
		b.Run(fmt.Sprintf("items=%d/scan-page", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				k := keys[i%size]
				ScanPageMerged(&s, &empty, keyspace.Range{Start: k, End: k - 1}, PageMaxItems, PageMaxBytes)
			}
		})
		b.Run(fmt.Sprintf("items=%d/fill", size), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var f Store
				f.EnableDigest(antientropy.DefaultDepth)
				for _, k := range keys {
					f.Put(k, val)
				}
			}
		})
	}
}

// BenchmarkStoreReplace overwrites a 256 B value in a 10 k-item store,
// with a digest tree (an owner's store) and without one (a replica's): the
// difference is the two value hashes a replace costs when a tree is kept.
func BenchmarkStoreReplace(b *testing.B) {
	for _, digest := range []bool{true, false} {
		b.Run(fmt.Sprintf("digest=%v", digest), func(b *testing.B) {
			var s Store
			if digest {
				s.EnableDigest(antientropy.DefaultDepth)
			}
			rnd := rand.New(rand.NewSource(5))
			keys := make([]keyspace.Key, 10000)
			val := make([]byte, 256)
			for i := range keys {
				keys[i] = keyspace.Key(rnd.Uint64())
				s.Put(keys[i], val)
			}
			for i := 0; b.Loop(); i++ {
				s.Put(keys[i%len(keys)], val)
			}
		})
	}
}
