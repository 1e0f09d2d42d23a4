package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// scatteredValues allocates n values of size bytes one by one, each
// followed by a ballast allocation of the same size, and returns them
// shuffled: stored under keys in order, they lie all over the heap and out
// of key order, as values put one at a time do. The ballast is garbage
// once it returns.
func scatteredValues(n, size int, rnd *rand.Rand) [][]byte {
	vals := make([][]byte, n)
	ballast := make([][]byte, n)
	for i := range vals {
		vals[i] = make([]byte, size)
		ballast[i] = make([]byte, size)
	}
	rnd.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// addr is the address of a value's first byte, 0 for nil.
func addr(v []byte) uintptr { return reflect.ValueOf(v).Pointer() }

// checkGathered fails unless the values of block b lie back to back in key
// order, each with cap == len: only a value's own bytes are reachable
// through it.
func checkGathered(t *testing.T, s *Store, b int) {
	t.Helper()
	var prev []byte
	for j, it := range s.blocks[b] {
		if cap(it.Value) != len(it.Value) {
			t.Fatalf("block %d item %d: len %d, cap %d", b, j, len(it.Value), cap(it.Value))
		}
		if len(it.Value) == 0 {
			continue
		}
		if prev != nil && addr(it.Value) != addr(prev)+uintptr(len(prev)) {
			t.Fatalf("block %d item %d does not follow its predecessor in memory", b, j)
		}
		prev = it.Value
	}
}

// TestGatherLaysOutPageInKeyOrder reads one page over a store whose values
// were allocated shuffled: every block the page reads is laid out in key
// order, and the page's values are the stored ones, byte for byte, nil
// and empty alike.
func TestGatherLaysOutPageInKeyOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	const n = 3000
	vals := scatteredValues(n, 100, rnd)
	keys := make([]keyspace.Key, n)
	for i := range keys {
		keys[i] = keyspace.Key(rnd.Uint64())
		switch {
		case i%97 == 5:
			vals[i] = nil
		case i%89 == 7:
			vals[i] = []byte{}
		default:
			vals[i] = vals[i][:1+i%100] // shorter than its array: cap > len
			for j := range vals[i] {
				vals[i][j] = byte(i + j)
			}
		}
	}
	var s Store
	for _, i := range rnd.Perm(n) {
		s.Put(keys[i], vals[i])
	}
	want := s.Items()
	for i := range want {
		want[i].Value = bytes.Clone(want[i].Value) // nil stays nil
	}

	page, more := s.ScanPage(keyspace.FullRange(), 4096, PageMaxBytes)
	if more || len(page) != n {
		t.Fatalf("page = %d items, more %v; want %d, false", len(page), more, n)
	}
	for i, it := range page {
		w := want[i]
		if it.Key != w.Key || !bytes.Equal(it.Value, w.Value) {
			t.Fatalf("item %d = %v %q, want %v %q", i, it.Key, it.Value, w.Key, w.Value)
		}
		if (it.Value == nil) != (w.Value == nil) {
			t.Fatalf("item %d: nil-ness changed: got nil %v, want nil %v", i, it.Value == nil, w.Value == nil)
		}
		if cap(it.Value) != len(it.Value) {
			t.Fatalf("item %d: len %d, cap %d", i, len(it.Value), cap(it.Value))
		}
		if got, _ := s.Get(it.Key); addr(got) != addr(it.Value) {
			t.Fatalf("item %d: the store holds another array than the page", i)
		}
	}
	for b := range s.blocks {
		checkGathered(t, &s, b)
	}
	if !itemsEqual(s.Items(), want) {
		t.Fatal("the store's contents changed")
	}
}

// TestGatherTrigger pins when a page gathers a block: not while at most a
// quarter of its items were put since its last gather, so each value keeps
// its array, and again on the next page once more were, leaving the arrays
// it copied from untouched. A split hands each half the parent's count,
// up to the half's length.
func TestGatherTrigger(t *testing.T) {
	full := keyspace.FullRange()
	var s Store
	for i := range 400 {
		s.Put(keyspace.Key(2*i+2), bytes.Repeat([]byte{byte(i)}, 16))
	}
	s.ScanPage(full, 0, 0)
	checkGathered(t, &s, 0)
	held := map[keyspace.Key]uintptr{}
	for i := range 100 { // 100 of 400: at the share, not past it
		k := keyspace.Key(8*i + 2)
		s.Put(k, bytes.Repeat([]byte{byte(i)}, 16))
	}
	for _, it := range s.Items() {
		held[it.Key] = addr(it.Value)
	}
	s.ScanPage(full, 0, 0)
	for _, it := range s.Items() {
		if addr(it.Value) != held[it.Key] {
			t.Fatalf("key %v was copied below the trigger", it.Key)
		}
	}
	// A page copied before a gather is still read after it, outside the
	// lock, as a node encodes it: the gather must not write the arrays it
	// copies from.
	old, _ := s.ScanPage(full, 0, 0)
	oldBytes := make([][]byte, len(old))
	for i, it := range old {
		oldBytes[i] = bytes.Clone(it.Value)
	}
	s.Put(1, []byte("past the share")) // 101 of 401
	s.ScanPage(full, 0, 0)
	for _, it := range s.Items() {
		if addr(it.Value) == held[it.Key] {
			t.Fatalf("key %v was not gathered past the trigger", it.Key)
		}
	}
	checkGathered(t, &s, 0)
	for i, it := range old {
		if !bytes.Equal(it.Value, oldBytes[i]) {
			t.Fatalf("the gather wrote into key %v's old array, which an earlier page still reads", it.Key)
		}
	}

	var sp Store
	for i := range blockMaxItems {
		sp.Put(keyspace.Key(2*i+2), []byte{byte(i)})
	}
	sp.Put(blockMaxItems+1, []byte("splits")) // into the upper half
	if len(sp.puts) != 2 || sp.puts[0] != blockMaxItems/2 || sp.puts[1] != blockMaxItems/2+1 {
		t.Fatalf("after a split the put counts are %v, want [%d %d]", sp.puts, blockMaxItems/2, blockMaxItems/2+1)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGatherMemory pages through a store of 20 k private, scattered 100 B
// values: the slabs replace the arrays they were copied from, so the live
// heap after a collection stays within 10 % of what it was.
func TestGatherMemory(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	s := &Store{}
	for _, v := range scatteredValues(20000, 100, rnd) {
		s.Put(keyspace.Key(rnd.Uint64()), v)
	}
	before := liveHeap()
	rg := keyspace.FullRange()
	for {
		page, more := s.ScanPage(rg, 4096, PageMaxBytes)
		if !more {
			break
		}
		rg.Start = page[len(page)-1].Key + 1
	}
	for b, c := range s.puts {
		if c != 0 {
			t.Fatalf("block %d was not gathered: %d puts", b, c)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	if diff := float64(after) - float64(before); diff > 0.1*float64(before) || -diff > 0.1*float64(before) {
		t.Fatalf("live heap %d B before paging through the store, %d B after: more than 10 %% apart", before, after)
	}
}

// TestGatherNeverScannedKeepsCallerArrays pins the other half of the
// bargain: a store that no page reads stores and returns the caller's own
// arrays, so copies of one value on several in-memory stores stay one
// array. Reads that are not pages gather nothing.
func TestGatherNeverScannedKeepsCallerArrays(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	var s Store
	s.EnableDigest(4)
	put := map[keyspace.Key][]byte{}
	for i := range 3 * blockMaxItems {
		k := keyspace.Key(rnd.Uint64())
		v := make([]byte, 8+i%5)
		s.Put(k, v)
		put[k] = v
	}
	full := keyspace.FullRange()
	s.Items()
	s.Digest(full, 4)
	s.SyncStates(full)
	for k, v := range put {
		if got, ok := s.Get(k); !ok || addr(got) != addr(v) || cap(got) != cap(v) {
			t.Fatalf("Get(%v) returned another array than the one put", k)
		}
	}
}
