// Package storage is the per-peer ordered key-value store of the data
// layer. The overlay is order-preserving precisely so that stores can be
// range-partitioned: peer p holds every item whose key falls in the arc
// (pred(p), p], and range queries scan consecutive peers' stores.
//
// Items are kept in key-ordered blocks of at most blockMaxItems sorted
// items, each found by a binary search over a contiguous index of the
// blocks' last keys. A shard under insert load grows to tens of thousands
// of items, and in one sorted slice every new key shifts every larger item,
// under the node's lock, on the owner and again on each replica. With
// blocks an insert or remove shifts items inside one block, a full block
// splits in two, and a read is still two binary searches over contiguous
// memory.
//
// A stored value is the caller's slice, so values put one at a time lie
// wherever and in whatever order they arrived, and copies on several
// stores may share one array. The first bounded scan page that reads a
// block after enough of it was written gathers it: its values are copied
// back to back, in key order, into one slab of exactly their summed size,
// so the page's encode reads memory in order. Only scanned blocks are
// gathered; a store that is never paged keeps every caller's array. A
// gathered value keeps cap == len, so appending to it never writes into a
// neighbour, and a value held past its block's next gather or removal
// pins at most that block's slab.
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
	"slices"
	"sort"
	"time"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// Page bounds of the data layer's frame-bounded bulk transfers. Replicate
// pushes, migrate responses and repair batches stop at PageMaxItems items
// (a scan page, which a reader waits on, has a larger item cap of its
// own). Every transfer, scan pages included, stops once the accumulated
// value bytes would pass PageMaxBytes — an order of magnitude under the
// transport's 16 MiB frame cap, so no single response can approach it.
const (
	PageMaxItems = 512
	PageMaxBytes = 4 << 20
)

// blockMaxItems bounds a store block. It is a layout choice of its own,
// so no wire bound can move it.
const blockMaxItems = 512

// gatherShare sets when a page gathers a block: once more than
// 1/gatherShare of its items were put since its last gather. A block that
// pages keep reading is then copied once per len/gatherShare puts, about
// gatherShare copies of each value put, and at most 1/gatherShare of its
// values lie out of order when a page reads it.
const gatherShare = 4

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
	// blocks holds the items in key order: every block is non-empty,
	// sorted, at most blockMaxItems long, and below the next block.
	blocks [][]Item
	lasts  []keyspace.Key // lasts[b] is the last key of blocks[b]
	puts   []int          // puts[b] counts values put into blocks[b] since its last gather
	n      int            // items across all blocks
	tombs  []Tombstone    // sorted by Key ascending; disjoint from items
	// tree, when enabled, is the incrementally-maintained digest of items
	// and tombstones together.
	tree *antientropy.Tree
	// sink, when set, observes every primitive mutation in apply order —
	// the write-ahead-log hook, attached alongside the digest tree so the
	// two can never disagree about what happened. See SetSink.
	sink func(Mutation)
}

// Len returns the number of live items (tombstones excluded).
func (s *Store) Len() int { return s.n }

// TombstoneCount returns the number of recorded tombstones.
func (s *Store) TombstoneCount() int { return len(s.tombs) }

// locate returns the position of the first item with key >= k: item i of
// block b, or b == len(s.blocks) when every key is below k.
func (s *Store) locate(k keyspace.Key) (b, i int) {
	lo, hi := 0, len(s.lasts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.lasts[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(s.blocks) {
		return lo, 0
	}
	return lo, searchBlock(s.blocks[lo], k)
}

// searchBlock returns the index of the first item in blk with key >= k.
// It and locate search by hand, because a point read is nothing but these
// two searches: sort.Search calls a closure per probe, and
// slices.BinarySearch is not inlined.
func searchBlock(blk []Item, k keyspace.Key) int {
	lo, hi := 0, len(blk)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if blk[m].Key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchTomb returns the index of the first tombstone with key >= k.
func (s *Store) searchTomb(k keyspace.Key) int {
	return sort.Search(len(s.tombs), func(i int) bool { return s.tombs[i].Key >= k })
}

// applyItem toggles a live item's state hash in the digest tree, if one is
// maintained. The hash is computed only then: a store without a tree (every
// replica's) never reads the value.
func (s *Store) applyItem(k keyspace.Key, v []byte) {
	if s.tree != nil {
		s.tree.Apply(k, antientropy.ItemHash(k, v))
	}
}

// applyTomb is applyItem for a tombstone.
func (s *Store) applyTomb(k keyspace.Key) {
	if s.tree != nil {
		s.tree.Apply(k, antientropy.TombHash(k))
	}
}

// Put inserts or replaces the value for k and reports whether an existing
// item was replaced. The value slice is stored as-is (callers own it). A
// tombstone for k, if any, is cleared: a fresh write supersedes the delete.
func (s *Store) Put(k keyspace.Key, v []byte) (replaced bool) {
	s.emit(Mutation{Op: MutPut, Key: k, Value: v})
	s.clearTombstone(k)
	b, i := s.locate(k)
	if b < len(s.blocks) && s.blocks[b][i].Key == k {
		it := &s.blocks[b][i]
		s.applyItem(k, it.Value)
		it.Value = v
		s.puts[b]++
		s.applyItem(k, v)
		return true
	}
	s.insert(b, i, Item{Key: k, Value: v})
	s.applyItem(k, v)
	return false
}

// insert places it at position (b, i), where locate put its key. A key
// past the last one joins the last block, or opens a new block when that
// one is full, so a store filled in key order (a snapshot load, a migrated
// arc) packs its blocks full. Anywhere else a full block splits in two.
func (s *Store) insert(b, i int, it Item) {
	if b == len(s.blocks) {
		if b == 0 || len(s.blocks[b-1]) == blockMaxItems {
			s.blocks = append(s.blocks, nil)
			s.lasts = append(s.lasts, it.Key)
			s.puts = append(s.puts, 0)
		} else {
			b--
		}
		i = len(s.blocks[b])
	}
	if len(s.blocks[b]) == blockMaxItems {
		b, i = s.split(b, i)
	}
	blk := s.blocks[b]
	if len(blk) == cap(blk) {
		blk = newBlock(blk, grow(len(blk)))
	}
	blk = blk[:len(blk)+1]
	copy(blk[i+1:], blk[i:])
	blk[i] = it
	s.blocks[b] = blk
	s.puts[b]++
	if i == len(blk)-1 {
		s.lasts[b] = it.Key
	}
	s.n++
}

// split copies the halves of the full block b into two right-sized
// blocks and returns the pending insert's position among them. Each half
// keeps the parent's put count, up to its own length.
func (s *Store) split(b, i int) (int, int) {
	const half = blockMaxItems / 2
	full := s.blocks[b]
	s.blocks[b] = newBlock(full[:half], 0)
	s.blocks = slices.Insert(s.blocks, b+1, newBlock(full[half:], 0))
	s.lasts = slices.Insert(s.lasts, b, full[half-1].Key)
	s.puts[b] = min(s.puts[b], half)
	s.puts = slices.Insert(s.puts, b+1, s.puts[b])
	if i < half {
		return b, i
	}
	return b + 1, i - half
}

// newBlock copies items into a fresh block with room for extra more.
func newBlock(items []Item, extra int) []Item {
	return append(make([]Item, 0, len(items)+extra), items...)
}

// grow returns how many slots a full block of n items gains when it must
// grow: about an eighth, where append would nearly double a slice this
// small. A shard's spare capacity then stays near 8 % of its items; one
// sorted slice carried 7–24 % at 5 k–30 k items. A sixteenth would save
// half that slack, but filling a store would then make 1.6× the garbage
// and take twice as long.
func grow(n int) int { return min(blockMaxItems-n, n/8+16) }

// removeAt deletes item i of block b, dropping the block if it empties.
func (s *Store) removeAt(b, i int) {
	blk := s.blocks[b]
	copy(blk[i:], blk[i+1:])
	blk[len(blk)-1] = Item{} // release the value to the collector
	blk = blk[:len(blk)-1]
	s.n--
	if len(blk) == 0 {
		s.blocks = slices.Delete(s.blocks, b, b+1)
		s.lasts = slices.Delete(s.lasts, b, b+1)
		s.puts = slices.Delete(s.puts, b, b+1)
		return
	}
	s.blocks[b] = blk
	if i == len(blk) {
		s.lasts[b] = blk[i-1].Key
	}
}

// Get returns the value for k.
func (s *Store) Get(k keyspace.Key) ([]byte, bool) {
	if b, i := s.locate(k); b < len(s.blocks) && s.blocks[b][i].Key == k {
		return s.blocks[b][i].Value, true
	}
	return nil, false
}

// Delete removes the item with key k and reports whether it existed. The
// delete is recorded as a tombstone (whether or not an item existed — the
// caller may be clearing a copy it cannot see), timestamped now, so sync
// protocols propagate it instead of resurrecting the key from stale copies.
func (s *Store) Delete(k keyspace.Key) bool {
	return s.SetTombstone(k, time.Now().UnixNano())
}

// removeItem removes the live item for k without recording a tombstone.
func (s *Store) removeItem(k keyspace.Key) bool {
	b, i := s.locate(k)
	if b == len(s.blocks) || s.blocks[b][i].Key != k {
		return false
	}
	s.applyItem(k, s.blocks[b][i].Value)
	s.removeAt(b, i)
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
	s.applyTomb(k)
}

// clearTombstone removes the tombstone for k, if any.
func (s *Store) clearTombstone(k keyspace.Key) bool {
	i := s.searchTomb(k)
	if i == len(s.tombs) || s.tombs[i].Key != k {
		return false
	}
	s.applyTomb(k)
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
			s.applyTomb(tb.Key)
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

// ScanPage returns up to maxItems items (whose accumulated value bytes
// stay within maxBytes) with keys in rg, in clockwise order from rg.Start,
// without removing them — the non-destructive sibling of ExtractRangeLimit
// and the single-store page of a streaming scan. At least one item ships
// when the range holds any (a single oversized value still pages), and a
// cap <= 0 is no cap. more reports that at least one further item remains
// in the range past the returned page; resume from the last returned key
// plus one. Non-destructive holds for contents, not layout: the page may
// gather the blocks it reads (see gather).
func (s *Store) ScanPage(rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	return ScanPageMerged(s, nil, rg, maxItems, maxBytes)
}

// span is the run of item positions from item i of block b up to, not
// including, item endI of block endB. The zero span is empty.
type span struct{ b, i, endB, endI int }

func (sp span) empty() bool { return sp.b > sp.endB || sp.b == sp.endB && sp.i >= sp.endI }

// head returns the span's items in its first block, and the rest of it.
func (sp span) head(blocks [][]Item) ([]Item, span) {
	blk := blocks[sp.b]
	end := len(blk)
	if sp.b == sp.endB {
		end = sp.endI
	}
	return blk[sp.i:end], span{sp.b + 1, 0, sp.endB, sp.endI}
}

// cursor walks a store's items over one range in clockwise order, one
// block at a time, so a bounded page reads only the blocks it returns.
// Its views alias the store's blocks, valid until the next mutation. They
// never change an item's key or contents; only nextGathered, the page
// path's step, may move a block's values into a new slab.
type cursor struct {
	s          *Store
	cur, after span   // the range's positions; after is empty unless rg wraps
	view       []Item // the unread rest of the current view (peek/advance)
}

// cursor returns a cursor over the items of s in rg; a nil store is empty.
func (s *Store) cursor(rg keyspace.Range) cursor {
	if s == nil || s.n == 0 {
		return cursor{}
	}
	c := cursor{s: s}
	b, i := s.locate(rg.Start)
	switch {
	case rg.IsFull():
		c.cur, c.after = span{b, i, len(s.blocks), 0}, span{0, 0, b, i}
	case rg.Start < rg.End:
		eb, ei := s.locate(rg.End)
		c.cur = span{b, i, eb, ei}
	default: // wrapping: [Start, MaxKey] then [0, End)
		eb, ei := s.locate(rg.End)
		c.cur, c.after = span{b, i, len(s.blocks), 0}, span{0, 0, eb, ei}
	}
	return c
}

// nextView returns the next run of the walk, which lies in one block, or
// nil once the walk is done. Blocks are never empty, so neither is a view.
func (c *cursor) nextView() []Item {
	if c.cur.empty() {
		c.cur, c.after = c.after, span{}
	}
	if c.cur.empty() {
		return nil
	}
	var v []Item
	v, c.cur = c.cur.head(c.s.blocks)
	return v
}

// nextGathered is nextView for a page: the next view's block is gathered
// first when it is due.
func (c *cursor) nextGathered() []Item {
	if c.cur.empty() {
		c.cur, c.after = c.after, span{}
	}
	if c.cur.empty() {
		return nil
	}
	c.s.gather(c.cur.b)
	return c.nextView()
}

// gather lays the values of block b out back to back, in key order, in
// one new slab of exactly their summed size, once more than
// 1/gatherShare of its items were put since its last gather. Each value
// keeps its bytes, its nil-ness and cap == len, so no reader can tell;
// the old arrays are never written, so a page copied from them earlier
// may still be read outside the store's lock.
func (s *Store) gather(b int) {
	blk := s.blocks[b]
	if s.puts[b]*gatherShare <= len(blk) {
		return
	}
	s.puts[b] = 0
	size := 0
	for _, it := range blk {
		size += len(it.Value)
	}
	slab := make([]byte, size)
	for j, it := range blk {
		if it.Value == nil {
			continue
		}
		n := copy(slab, it.Value)
		blk[j].Value, slab = slab[:n:n], slab[n:]
	}
}

func (c *cursor) peek() (Item, bool) {
	if len(c.view) == 0 {
		if c.view = c.nextView(); c.view == nil {
			return Item{}, false
		}
	}
	return c.view[0], true
}

func (c *cursor) advance() { c.view = c.view[1:] }

// countUpTo returns how many items the walk has left, counting no further
// than limit.
func (c *cursor) countUpTo(limit int) int {
	n := len(c.view)
	for _, sp := range [2]span{c.cur, c.after} {
		for n < limit && !sp.empty() {
			var v []Item
			v, sp = sp.head(c.s.blocks)
			n += len(v)
		}
	}
	return min(n, limit)
}

// makePage returns an empty page sized for what a bounded scan over the
// two walks can return — min(maxItems, items left in them) — so filling
// it never regrows. Without an item cap the page grows on demand: the byte
// cap alone says nothing about the count.
func makePage(maxItems int, p, f *cursor) []Item {
	if maxItems <= 0 {
		return nil
	}
	left := p.countUpTo(maxItems) + f.countUpTo(maxItems)
	if left == 0 {
		return nil
	}
	return make([]Item, 0, min(maxItems, left))
}

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
//
// It changes neither store's contents. Once the fallback has nothing left
// in the range, each primary block the page reads is gathered first when
// due, so it must run under whatever serialises the primary's writers;
// the fallback's layout is never touched.
func ScanPageMerged(primary, fallback *Store, rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	if primary == nil {
		primary = &Store{}
	}
	p, f := primary.cursor(rg), fallback.cursor(rg)
	out = makePage(maxItems, &p, &f)
	bytes := 0
	for {
		if _, ok := f.peek(); !ok {
			return appendRuns(out, bytes, &p, maxItems, maxBytes)
		}
		it, ok := nextMerged(&p, &f, rg.Start, primary)
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

// appendRuns fills the page from c alone once the fallback has nothing
// left in the range, under ScanPageMerged's bounds: every item is then
// emittable, so whole runs of a block are copied at once. Each block it
// opens is gathered first when due, so the page's values lie in key
// order for its encode.
func appendRuns(out []Item, bytes int, c *cursor, maxItems, maxBytes int) ([]Item, bool) {
	for {
		v := c.view
		if len(v) == 0 {
			if v = c.nextGathered(); v == nil {
				return out, false
			}
		}
		n := len(v)
		if maxItems > 0 {
			n = min(n, maxItems-len(out))
		}
		if maxBytes > 0 {
			for j := range n {
				if (len(out) > 0 || j > 0) && bytes+len(v[j].Value) > maxBytes {
					n = j
					break
				}
				bytes += len(v[j].Value)
			}
		}
		out = append(out, v[:n]...)
		if n < len(v) {
			return out, true
		}
		c.view = nil
	}
}

// nextMerged pops the next emittable item of the two-store clockwise
// merge: ordering is by clockwise distance from start, duplicate keys keep
// the primary's copy, and fallback-only keys tombstoned at the primary are
// skipped entirely.
func nextMerged(p, f *cursor, start keyspace.Key, primary *Store) (Item, bool) {
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
	if s.n == 0 {
		return nil
	}
	out := make([]Item, 0, s.n)
	for _, blk := range s.blocks {
		out = append(out, blk...)
	}
	return out
}

// ExtractRange removes and returns the items whose keys lie in rg — the
// migration primitive used when a joining peer takes over part of its
// successor's arc. Tombstones in rg are not touched; migrate them
// separately with ExtractTombstones. The items left behind are repacked
// into full blocks, each counted as wholly put: their values come from
// several old blocks.
func (s *Store) ExtractRange(rg keyspace.Range) []Item {
	var out []Item
	for _, blk := range s.blocks {
		for _, it := range blk {
			if rg.Contains(it.Key) {
				s.emit(Mutation{Op: MutRemoveItem, Key: it.Key})
				s.applyItem(it.Key, it.Value)
				out = append(out, it)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	old, kept := s.blocks, s.n-len(out)
	s.blocks, s.lasts, s.puts, s.n = nil, nil, nil, 0
	var blk []Item
	for _, ob := range old {
		for _, it := range ob {
			if rg.Contains(it.Key) {
				continue
			}
			if blk == nil { // full blocks, then one sized to what is left
				blk = make([]Item, 0, min(blockMaxItems, kept-s.n))
			}
			blk = append(blk, it)
			s.n++
			if len(blk) == cap(blk) {
				s.blocks = append(s.blocks, blk)
				s.lasts = append(s.lasts, it.Key)
				s.puts = append(s.puts, len(blk))
				blk = nil
			}
		}
	}
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
	out, more = s.ScanPage(rg, maxItems, maxBytes)
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
			s.applyTomb(tb.Key)
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
	for _, blk := range s.blocks {
		for _, it := range blk {
			s.tree.Apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
		}
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
	c := s.cursor(rg)
	for v := c.nextView(); v != nil; v = c.nextView() {
		for _, it := range v {
			t.Apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
		}
	}
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
	c := s.cursor(rg)
	for v := c.nextView(); v != nil; v = c.nextView() {
		for _, it := range v {
			out = append(out, antientropy.State{Key: it.Key, Hash: antientropy.ItemHash(it.Key, it.Value)})
		}
	}
	for _, tb := range s.tombs {
		if rg.Contains(tb.Key) {
			out = append(out, antientropy.State{Key: tb.Key, Hash: antientropy.TombHash(tb.Key), Deleted: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
