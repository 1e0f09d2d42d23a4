package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
)

func TestDeleteRecordsTombstone(t *testing.T) {
	var s Store
	k := keyspace.FromFloat(0.4)
	s.Put(k, []byte("v"))
	if !s.Delete(k) {
		t.Fatal("delete missed the item")
	}
	if _, ok := s.Get(k); ok {
		t.Error("item still readable after delete")
	}
	if _, ok := s.Tombstone(k); !ok {
		t.Error("delete left no tombstone")
	}
	if s.TombstoneCount() != 1 || s.Len() != 0 {
		t.Errorf("len=%d tombs=%d", s.Len(), s.TombstoneCount())
	}

	// A delete of an absent key still records the tombstone: the caller may
	// be clearing copies it cannot see.
	k2 := keyspace.FromFloat(0.5)
	if s.Delete(k2) {
		t.Error("delete of absent key reported existence")
	}
	if _, ok := s.Tombstone(k2); !ok {
		t.Error("absent-key delete left no tombstone")
	}
}

func TestPutClearsTombstone(t *testing.T) {
	var s Store
	k := keyspace.FromFloat(0.4)
	s.Put(k, []byte("v1"))
	s.Delete(k)
	if replaced := s.Put(k, []byte("v2")); replaced {
		t.Error("put after delete reported replacement")
	}
	if _, ok := s.Tombstone(k); ok {
		t.Error("put left the tombstone in place")
	}
	if v, ok := s.Get(k); !ok || string(v) != "v2" {
		t.Errorf("get after re-put = %q, %v", v, ok)
	}
}

func TestSetTombstoneNewestWins(t *testing.T) {
	var s Store
	k := keyspace.FromFloat(0.7)
	s.Put(k, []byte("copy"))
	if !s.SetTombstone(k, 100) {
		t.Error("set tombstone did not remove the live copy")
	}
	s.SetTombstone(k, 50) // older: must not rewind
	if at, _ := s.Tombstone(k); at != 100 {
		t.Errorf("tombstone at = %d, want 100", at)
	}
	s.SetTombstone(k, 200)
	if at, _ := s.Tombstone(k); at != 200 {
		t.Errorf("tombstone at = %d, want 200", at)
	}
}

func TestDropRemovesEveryTrace(t *testing.T) {
	var s Store
	k := keyspace.FromFloat(0.2)
	s.Put(k, []byte("stray"))
	s.Drop(k)
	if _, ok := s.Get(k); ok {
		t.Error("drop left the item")
	}
	if _, ok := s.Tombstone(k); ok {
		t.Error("drop recorded a tombstone")
	}
	s.DeleteAt(k, 5)
	s.Drop(k)
	if s.TombstoneCount() != 0 {
		t.Error("drop left the tombstone")
	}
}

func TestGCTombstones(t *testing.T) {
	var s Store
	s.EnableDigest(4)
	k1, k2 := keyspace.FromFloat(0.1), keyspace.FromFloat(0.6)
	s.DeleteAt(k1, 100)
	s.DeleteAt(k2, 300)
	if got := s.GCTombstones(200); got != 1 {
		t.Fatalf("gc collected %d, want 1", got)
	}
	if _, ok := s.Tombstone(k1); ok {
		t.Error("expired tombstone survived")
	}
	if _, ok := s.Tombstone(k2); !ok {
		t.Error("fresh tombstone collected")
	}
	// The maintained digest must track the collection.
	want := (&Store{}).digestWithTomb(4, k2)
	if !reflect.DeepEqual(s.DigestLeaves(), want) {
		t.Error("digest out of sync after GC")
	}
}

// digestWithTomb builds the expected leaf vector for a single tombstone.
func (s *Store) digestWithTomb(depth int, k keyspace.Key) []uint64 {
	tr := antientropy.NewTree(depth)
	tr.Apply(k, antientropy.TombHash(k))
	return tr.Leaves()
}

func TestExtractTombstones(t *testing.T) {
	var s Store
	lo, mid, hi := keyspace.FromFloat(0.1), keyspace.FromFloat(0.5), keyspace.FromFloat(0.9)
	s.DeleteAt(lo, 1)
	s.DeleteAt(mid, 2)
	s.DeleteAt(hi, 3)
	out := s.ExtractTombstones(keyspace.Range{Start: keyspace.FromFloat(0.4), End: keyspace.FromFloat(0.6)})
	if len(out) != 1 || out[0].Key != mid || out[0].At != 2 {
		t.Fatalf("extracted %v", out)
	}
	if s.TombstoneCount() != 2 {
		t.Errorf("%d tombstones left, want 2", s.TombstoneCount())
	}
	var dst Store
	dst.InsertTombstones(out)
	if at, ok := dst.Tombstone(mid); !ok || at != 2 {
		t.Errorf("insert lost the tombstone: %d, %v", at, ok)
	}
}

// TestMaintainedDigestMatchesOnDemand drives a store through a random
// mutation sequence and checks the incrementally-maintained tree equals a
// from-scratch digest after every step — the invariant the sync protocol
// leans on.
func TestMaintainedDigestMatchesOnDemand(t *testing.T) {
	const depth = 6
	var s Store
	s.EnableDigest(depth)
	rnd := rand.New(rand.NewSource(7))
	keys := make([]keyspace.Key, 40)
	for i := range keys {
		keys[i] = keyspace.Key(rnd.Uint64())
	}
	full := keyspace.FullRange()
	for step := 0; step < 400; step++ {
		k := keys[rnd.Intn(len(keys))]
		switch rnd.Intn(5) {
		case 0, 1:
			s.Put(k, []byte(fmt.Sprintf("v%d", step)))
		case 2:
			s.DeleteAt(k, int64(step))
		case 3:
			s.Drop(k)
		case 4:
			rg := keyspace.Range{Start: k, End: k + 1<<58}
			ext := s.ExtractRange(rg)
			tbs := s.ExtractTombstones(rg)
			// Reinsert half the time, so extraction both shrinks and grows.
			if rnd.Intn(2) == 0 {
				s.InsertBulk(ext)
				s.InsertTombstones(tbs)
			}
		}
		if !reflect.DeepEqual(s.DigestLeaves(), s.Digest(full, depth)) {
			t.Fatalf("step %d: maintained digest diverged from on-demand rebuild", step)
		}
	}
}

func TestSyncStatesMergesItemsAndTombstones(t *testing.T) {
	var s Store
	k1, k2, k3 := keyspace.FromFloat(0.2), keyspace.FromFloat(0.4), keyspace.FromFloat(0.6)
	s.Put(k1, []byte("a"))
	s.DeleteAt(k2, 9)
	s.Put(k3, []byte("c"))
	states := s.SyncStates(keyspace.FullRange())
	if len(states) != 3 {
		t.Fatalf("%d states", len(states))
	}
	want := []antientropy.State{
		{Key: k1, Hash: antientropy.ItemHash(k1, []byte("a"))},
		{Key: k2, Hash: antientropy.TombHash(k2), Deleted: true},
		{Key: k3, Hash: antientropy.ItemHash(k3, []byte("c"))},
	}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("states = %v, want %v", states, want)
	}
	// Range restriction excludes out-of-arc state.
	arc := keyspace.Range{Start: keyspace.FromFloat(0.3), End: keyspace.FromFloat(0.5)}
	if got := s.SyncStates(arc); len(got) != 1 || got[0].Key != k2 {
		t.Errorf("restricted states = %v", got)
	}
}

// BenchmarkArcDigest compares the two digest paths: the O(1) incremental
// update a digest-enabled store pays per write, and the O(arc) from-scratch
// rebuild a replica pays when asked to digest an arc on demand.
func BenchmarkArcDigest(b *testing.B) {
	const items = 8192
	keys := make([]keyspace.Key, items)
	mkStore := func(digest bool) *Store {
		var s Store
		if digest {
			s.EnableDigest(antientropy.DefaultDepth)
		}
		rnd := rand.New(rand.NewSource(3))
		val := make([]byte, 64)
		rnd.Read(val)
		for i := range keys {
			keys[i] = keyspace.Key(rnd.Uint64())
			s.Put(keys[i], val)
		}
		return &s
	}

	b.Run("incremental-put", func(b *testing.B) {
		s := mkStore(true)
		val := make([]byte, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Overwrite in place: isolates hash+toggle from slice growth.
			s.Put(keys[i%items], val)
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		s := mkStore(false)
		full := keyspace.FullRange()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := s.Digest(full, antientropy.DefaultDepth); len(got) == 0 {
				b.Fatal("empty digest")
			}
		}
	})
}
