// Package storage is the per-peer ordered key-value store of the data
// layer. The overlay is order-preserving precisely so that stores can be
// range-partitioned: peer p holds every item whose key falls in the arc
// (pred(p), p], and range queries scan consecutive peers' stores.
//
// Items are kept in a sorted slice: stores hold one peer's shard (thousands
// of items, not millions), where binary search plus contiguous memory beats
// pointer-chasing tree structures.
//
// Two replication concerns live here alongside the items:
//
//   - Tombstones. Delete does not just remove the item — it records the key
//     as deleted (with a timestamp for TTL garbage collection), so that
//     anti-entropy sync and arc re-syncs can distinguish "this replica never
//     saw the key" from "this key was deleted" and never resurrect deleted
//     data from a stale copy. A later Put clears the tombstone.
//
//   - Digests. A store can maintain an antientropy.Tree summary of its
//     contents (items and tombstones alike), updated in O(1) on every
//     mutation, so an arc owner can open a sync round without rehashing its
//     shard. Stores that don't need it (replica stores, the simulator's
//     shards) compute digests on demand with Digest instead.
package storage

import (
	"sort"
	"time"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// Page bounds shared by every frame-bounded bulk transfer of the data
// layer: replicate pushes, migrate responses and scan pages alike stop at
// PageMaxItems items or once the accumulated value bytes would pass
// PageMaxBytes — an order of magnitude under the transport's 16 MiB frame
// cap, so no single response can approach it.
const (
	PageMaxItems = 512
	PageMaxBytes = 4 << 20
)

// Item is one stored record.
type Item struct {
	Key   keyspace.Key
	Value []byte
}

// Tombstone records one deleted key and when it was deleted (unix
// nanoseconds, by the clock of the node that recorded it). The timestamp
// drives TTL garbage collection only — it is deliberately excluded from
// digests, so two nodes that agree a key is deleted agree on its hash no
// matter when each learned of the delete.
type Tombstone struct {
	Key keyspace.Key `json:"key"`
	At  int64        `json:"at"`
}

// Store is one peer's shard, ordered by key. The zero value is an empty
// store ready to use.
type Store struct {
	items []Item      // sorted by Key ascending
	tombs []Tombstone // sorted by Key ascending; disjoint from items
	// tree, when enabled, is the incrementally-maintained digest of items
	// and tombstones together.
	tree *antientropy.Tree
	// sink, when set, observes every primitive mutation in apply order —
	// the write-ahead-log hook, attached alongside the digest tree so the
	// two can never disagree about what happened. See SetSink.
	sink func(Mutation)
}

// Len returns the number of live items (tombstones excluded).
func (s *Store) Len() int { return len(s.items) }

// TombstoneCount returns the number of recorded tombstones.
func (s *Store) TombstoneCount() int { return len(s.tombs) }

// search returns the index of the first item with key >= k.
func (s *Store) search(k keyspace.Key) int {
	return sort.Search(len(s.items), func(i int) bool { return s.items[i].Key >= k })
}

// searchTomb returns the index of the first tombstone with key >= k.
func (s *Store) searchTomb(k keyspace.Key) int {
	return sort.Search(len(s.tombs), func(i int) bool { return s.tombs[i].Key >= k })
}

// apply toggles a state hash in the digest tree, if one is maintained.
func (s *Store) apply(k keyspace.Key, h uint64) {
	if s.tree != nil {
		s.tree.Apply(k, h)
	}
}

// Put inserts or replaces the value for k and reports whether an existing
// item was replaced. The value slice is stored as-is (callers own it). A
// tombstone for k, if any, is cleared: a fresh write supersedes the delete.
func (s *Store) Put(k keyspace.Key, v []byte) (replaced bool) {
	s.emit(Mutation{Op: MutPut, Key: k, Value: v})
	s.clearTombstone(k)
	i := s.search(k)
	if i < len(s.items) && s.items[i].Key == k {
		s.apply(k, antientropy.ItemHash(k, s.items[i].Value))
		s.items[i].Value = v
		s.apply(k, antientropy.ItemHash(k, v))
		return true
	}
	s.items = append(s.items, Item{})
	copy(s.items[i+1:], s.items[i:])
	s.items[i] = Item{Key: k, Value: v}
	s.apply(k, antientropy.ItemHash(k, v))
	return false
}

// Get returns the value for k.
func (s *Store) Get(k keyspace.Key) ([]byte, bool) {
	i := s.search(k)
	if i < len(s.items) && s.items[i].Key == k {
		return s.items[i].Value, true
	}
	return nil, false
}

// Delete removes the item with key k and reports whether it existed. The
// delete is recorded as a tombstone (whether or not an item existed — the
// caller may be clearing a copy it cannot see), timestamped now, so sync
// protocols propagate it instead of resurrecting the key from stale copies.
func (s *Store) Delete(k keyspace.Key) bool {
	return s.DeleteAt(k, time.Now().UnixNano())
}

// DeleteAt is Delete with an explicit tombstone timestamp (unix nanos).
func (s *Store) DeleteAt(k keyspace.Key, at int64) bool {
	s.emit(Mutation{Op: MutTombstone, Key: k, At: at})
	existed := s.removeItem(k)
	s.setTomb(k, at)
	return existed
}

// removeItem removes the live item for k without recording a tombstone.
func (s *Store) removeItem(k keyspace.Key) bool {
	i := s.search(k)
	if i == len(s.items) || s.items[i].Key != k {
		return false
	}
	s.apply(k, antientropy.ItemHash(k, s.items[i].Value))
	s.items = append(s.items[:i], s.items[i+1:]...)
	return true
}

// setTomb records (or refreshes) the tombstone for k, keeping the newest
// timestamp. The digest is unchanged when a tombstone already exists: the
// tombstone hash covers the key only, so refreshing the clock is invisible.
func (s *Store) setTomb(k keyspace.Key, at int64) {
	i := s.searchTomb(k)
	if i < len(s.tombs) && s.tombs[i].Key == k {
		if at > s.tombs[i].At {
			s.tombs[i].At = at
		}
		return
	}
	s.tombs = append(s.tombs, Tombstone{})
	copy(s.tombs[i+1:], s.tombs[i:])
	s.tombs[i] = Tombstone{Key: k, At: at}
	s.apply(k, antientropy.TombHash(k))
}

// clearTombstone removes the tombstone for k, if any.
func (s *Store) clearTombstone(k keyspace.Key) bool {
	i := s.searchTomb(k)
	if i == len(s.tombs) || s.tombs[i].Key != k {
		return false
	}
	s.apply(k, antientropy.TombHash(k))
	s.tombs = append(s.tombs[:i], s.tombs[i+1:]...)
	return true
}

// SetTombstone applies a delete learned from elsewhere (an owner's
// anti-entropy push, a replicated delete): the live copy, if any, is
// removed and the key is marked deleted with the given timestamp (newest
// wins). It reports whether a live item was removed.
func (s *Store) SetTombstone(k keyspace.Key, at int64) bool {
	s.emit(Mutation{Op: MutTombstone, Key: k, At: at})
	existed := s.removeItem(k)
	s.setTomb(k, at)
	return existed
}

// Tombstone returns the deletion timestamp for k, if the key is tombstoned.
func (s *Store) Tombstone(k keyspace.Key) (int64, bool) {
	i := s.searchTomb(k)
	if i < len(s.tombs) && s.tombs[i].Key == k {
		return s.tombs[i].At, true
	}
	return 0, false
}

// InsertTombstones merges learned tombstones into the store (newest
// timestamp wins), removing any live copies of those keys.
func (s *Store) InsertTombstones(tombs []Tombstone) {
	for _, tb := range tombs {
		s.SetTombstone(tb.Key, tb.At)
	}
}

// Drop removes every trace of k — live item and tombstone alike — without
// recording a delete. It is the cleanup primitive for stray replica state
// the arc owner has no record of.
func (s *Store) Drop(k keyspace.Key) {
	s.emit(Mutation{Op: MutDrop, Key: k})
	s.removeItem(k)
	s.clearTombstone(k)
}

// GCTombstones discards tombstones recorded before cutoff (unix nanos) and
// returns how many were collected. Run it on a TTL well above the
// anti-entropy interval: a tombstone only needs to survive until every
// replica has either applied it or been dropped from the chain.
func (s *Store) GCTombstones(cutoff int64) int {
	kept := s.tombs[:0]
	dropped := 0
	for _, tb := range s.tombs {
		if tb.At < cutoff {
			s.apply(tb.Key, antientropy.TombHash(tb.Key))
			dropped++
		} else {
			kept = append(kept, tb)
		}
	}
	s.tombs = kept
	if dropped > 0 {
		s.emit(Mutation{Op: MutGC, At: cutoff})
	}
	return dropped
}

// Scan visits items whose keys lie in the clockwise arc rg, in clockwise
// order starting from rg.Start; fn returning false stops the scan. Wrapping
// arcs are handled (the scan may start near the top of the key space and
// continue from the bottom). Tombstoned keys are not visited.
func (s *Store) Scan(rg keyspace.Range, fn func(Item) bool) {
	if len(s.items) == 0 {
		return
	}
	if rg.IsFull() {
		// Clockwise from rg.Start over the whole circle.
		start := s.search(rg.Start)
		for i := 0; i < len(s.items); i++ {
			if !fn(s.items[(start+i)%len(s.items)]) {
				return
			}
		}
		return
	}
	if rg.Start < rg.End {
		for i := s.search(rg.Start); i < len(s.items) && s.items[i].Key < rg.End; i++ {
			if !fn(s.items[i]) {
				return
			}
		}
		return
	}
	// Wrapping arc: [Start, MaxKey] then [0, End).
	for i := s.search(rg.Start); i < len(s.items); i++ {
		if !fn(s.items[i]) {
			return
		}
	}
	for i := 0; i < len(s.items) && s.items[i].Key < rg.End; i++ {
		if !fn(s.items[i]) {
			return
		}
	}
}

// ScanPage returns up to maxItems items (whose accumulated value bytes
// stay within maxBytes) with keys in rg, in clockwise order from rg.Start,
// without removing them — the non-destructive sibling of ExtractRangeLimit
// and the single-store page of a streaming scan. At least one item ships
// when the range holds any (a single oversized value still pages), and a
// cap <= 0 is no cap. more reports that at least one further item remains
// in the range past the returned page; resume from the last returned key
// plus one.
func (s *Store) ScanPage(rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	out = makePage(maxItems, s.rangeViews(rg))
	bytes := 0
	s.Scan(rg, func(it Item) bool {
		if maxItems > 0 && len(out) >= maxItems {
			more = true
			return false
		}
		if maxBytes > 0 && len(out) > 0 && bytes+len(it.Value) > maxBytes {
			more = true
			return false
		}
		bytes += len(it.Value)
		out = append(out, it)
		return true
	})
	return out, more
}

// rangeViews returns up to two subslice views of s.items covering rg in
// clockwise order from rg.Start (two when the arc wraps the top of the
// circle). The views alias the store's backing array — read-only, valid
// until the next mutation.
func (s *Store) rangeViews(rg keyspace.Range) [][]Item {
	if s == nil || len(s.items) == 0 {
		return nil
	}
	i := s.search(rg.Start)
	if rg.IsFull() {
		return [][]Item{s.items[i:], s.items[:i]}
	}
	if rg.Start < rg.End {
		return [][]Item{s.items[i:s.search(rg.End)]}
	}
	return [][]Item{s.items[i:], s.items[:s.search(rg.End)]}
}

// makePage returns an empty page sized for what a bounded scan over the
// given views can return — min(maxItems, items in the views) — so filling
// it never regrows. Without an item cap the page grows on demand: the byte
// cap alone says nothing about the count.
func makePage(maxItems int, views ...[][]Item) []Item {
	if maxItems <= 0 {
		return nil
	}
	left := 0
	for _, parts := range views {
		for _, part := range parts {
			left += len(part)
		}
	}
	if left == 0 {
		return nil
	}
	return make([]Item, 0, min(maxItems, left))
}

// pageWalker pulls items one at a time from a store's clockwise range
// views — the pull-style iterator a two-store merge needs.
type pageWalker struct {
	parts [][]Item
}

func (w *pageWalker) peek() (Item, bool) {
	for len(w.parts) > 0 {
		if len(w.parts[0]) == 0 {
			w.parts = w.parts[1:]
			continue
		}
		return w.parts[0][0], true
	}
	return Item{}, false
}

func (w *pageWalker) advance() { w.parts[0] = w.parts[0][1:] }

// ScanPageMerged returns one bounded page of the clockwise merge of two
// stores restricted to rg, from rg.Start: primary items win key
// collisions, and a fallback item is suppressed when the primary holds a
// tombstone for its key — the primary's delete is authoritative, the same
// per-key rule the chain-fallback read path applies. It is the page
// primitive of the streaming scan: a node serves its own shard merged with
// its replica store, so a chain member can answer for a dead owner's arc
// and an owner that inherited un-promoted replica state serves it too.
//
// Bounds behave like ScanPage (maxItems items, maxBytes accumulated value
// bytes, at least one item when any qualifies, cap <= 0 is no cap), and
// more is exact: it is true only when a further emittable item exists, so
// a resumer never spins on an empty page.
func ScanPageMerged(primary, fallback *Store, rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	if primary == nil {
		primary = &Store{}
	}
	p := &pageWalker{parts: primary.rangeViews(rg)}
	f := &pageWalker{parts: fallback.rangeViews(rg)}
	out = makePage(maxItems, p.parts, f.parts)
	bytes := 0
	for {
		it, ok := nextMerged(p, f, rg.Start, primary)
		if !ok {
			return out, false
		}
		if maxItems > 0 && len(out) >= maxItems {
			return out, true
		}
		if maxBytes > 0 && len(out) > 0 && bytes+len(it.Value) > maxBytes {
			return out, true
		}
		bytes += len(it.Value)
		out = append(out, it)
	}
}

// nextMerged pops the next emittable item of the two-store clockwise
// merge: ordering is by clockwise distance from start, duplicate keys keep
// the primary's copy, and fallback-only keys tombstoned at the primary are
// skipped entirely.
func nextMerged(p, f *pageWalker, start keyspace.Key, primary *Store) (Item, bool) {
	for {
		pi, pok := p.peek()
		fi, fok := f.peek()
		switch {
		case !pok && !fok:
			return Item{}, false
		case pok && (!fok || start.Distance(pi.Key) <= start.Distance(fi.Key)):
			p.advance()
			if fok && fi.Key == pi.Key {
				f.advance() // duplicate copy: the primary's value wins
			}
			return pi, true
		default:
			f.advance()
			if _, dead := primary.Tombstone(fi.Key); dead {
				continue // authoritatively deleted at the primary
			}
			return fi, true
		}
	}
}

// Items returns all items in key order (a copy of the slice headers; values
// are shared).
func (s *Store) Items() []Item {
	return append([]Item(nil), s.items...)
}

// ExtractRange removes and returns the items whose keys lie in rg — the
// migration primitive used when a joining peer takes over part of its
// successor's arc. Tombstones in rg are not touched; migrate them
// separately with ExtractTombstones.
func (s *Store) ExtractRange(rg keyspace.Range) []Item {
	var out []Item
	kept := s.items[:0]
	for _, it := range s.items {
		if rg.Contains(it.Key) {
			s.emit(Mutation{Op: MutRemoveItem, Key: it.Key})
			s.apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
			out = append(out, it)
		} else {
			kept = append(kept, it)
		}
	}
	s.items = kept
	return out
}

// ExtractRangeLimit removes and returns items whose keys lie in rg, in
// clockwise order from rg.Start, stopping after maxItems items or once the
// accumulated value bytes would exceed maxBytes (at least one item is
// always extracted when the range is non-empty; a cap <= 0 is no cap).
// more reports that items remain in the range: because extraction removes
// what it returns, calling again with the same range yields the next
// chunk — the pagination primitive for migrating a large arc in bounded
// frames.
func (s *Store) ExtractRangeLimit(rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	bytes := 0
	s.Scan(rg, func(it Item) bool {
		if maxItems > 0 && len(out) >= maxItems {
			more = true
			return false
		}
		if maxBytes > 0 && len(out) > 0 && bytes+len(it.Value) > maxBytes {
			more = true
			return false
		}
		bytes += len(it.Value)
		out = append(out, it)
		return true
	})
	for _, it := range out {
		s.emit(Mutation{Op: MutRemoveItem, Key: it.Key})
		s.removeItem(it.Key)
	}
	return out, more
}

// ExtractTombstones removes and returns the tombstones whose keys lie in rg
// — the delete knowledge travels with the arc it covers.
func (s *Store) ExtractTombstones(rg keyspace.Range) []Tombstone {
	var out []Tombstone
	kept := s.tombs[:0]
	for _, tb := range s.tombs {
		if rg.Contains(tb.Key) {
			s.emit(Mutation{Op: MutRemoveTomb, Key: tb.Key})
			s.apply(tb.Key, antientropy.TombHash(tb.Key))
			out = append(out, tb)
		} else {
			kept = append(kept, tb)
		}
	}
	s.tombs = kept
	return out
}

// InsertBulk merges items (each keyed uniquely) into the store.
func (s *Store) InsertBulk(items []Item) {
	for _, it := range items {
		s.Put(it.Key, it.Value)
	}
}

// EnableDigest attaches (or rebuilds) an incrementally-maintained digest
// tree of the given depth, seeded from the store's current contents. Every
// subsequent mutation updates it in O(1).
func (s *Store) EnableDigest(depth int) {
	s.tree = antientropy.NewTree(depth)
	for _, it := range s.items {
		s.tree.Apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
	}
	for _, tb := range s.tombs {
		s.tree.Apply(tb.Key, antientropy.TombHash(tb.Key))
	}
}

// DigestLeaves returns the maintained digest's leaf vector, or nil if
// EnableDigest was never called.
func (s *Store) DigestLeaves() []uint64 {
	if s.tree == nil {
		return nil
	}
	return s.tree.Leaves()
}

// Digest computes the leaf vector of a depth-deep digest tree over the
// store's state (items and tombstones) restricted to rg. It is the
// on-demand counterpart of the maintained tree, used by replica stores
// answering a digest request for one owner's arc.
func (s *Store) Digest(rg keyspace.Range, depth int) []uint64 {
	t := antientropy.NewTree(depth)
	s.Scan(rg, func(it Item) bool {
		t.Apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
		return true
	})
	for _, tb := range s.tombs {
		if rg.Contains(tb.Key) {
			t.Apply(tb.Key, antientropy.TombHash(tb.Key))
		}
	}
	return t.Leaves()
}

// SyncStates returns the per-key sync states (live items and tombstones
// merged) for keys in rg, sorted by key — the key-level unit of the
// anti-entropy pull round.
func (s *Store) SyncStates(rg keyspace.Range) []antientropy.State {
	var out []antientropy.State
	s.Scan(rg, func(it Item) bool {
		out = append(out, antientropy.State{Key: it.Key, Hash: antientropy.ItemHash(it.Key, it.Value)})
		return true
	})
	for _, tb := range s.tombs {
		if rg.Contains(tb.Key) {
			out = append(out, antientropy.State{Key: tb.Key, Hash: antientropy.TombHash(tb.Key), Deleted: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
