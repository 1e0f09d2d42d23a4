// Package routecache provides the route cache: a small bounded LRU of
// owner resolutions for the data ops. It is a freshness cache, never
// authority — its consumer sends an op to a cached owner only inside a
// find_owner, which the owner must answer Found for the op to run — so the
// cache is allowed to be stale without ever being wrong.
//
// An entry covers a clockwise arc of keys, not one key: a live node stores
// an owner under the arc it owns, (pred, owner], so one resolution serves
// every key of that arc. Put caches under the one-key arc of a single key,
// for resolutions that carry no arc. Arcs in one cache never overlap:
// inserting an arc drops every entry it shares a key with, so an arc that
// split is re-learned half by half.
//
// The cache is safe for concurrent use and takes only its own lock, so
// callers may invoke it while holding node locks without ordering
// concerns.
package routecache

import (
	"cmp"
	"container/list"
	"slices"
	"sync"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

type entry[V any] struct {
	arc keyspace.Range
	val V
	// expires is the wall-clock instant the entry stops being served;
	// the zero time means the entry never ages out.
	expires time.Time
}

// slot is one entry's place in the cache's sorted index: the final key
// of its arc — arcs that do not overlap have distinct final keys — and
// its LRU element.
type slot struct {
	last keyspace.Key
	el   *list.Element
}

func cmpSlot(s slot, k keyspace.Key) int { return cmp.Compare(s.last, k) }

// Cache is a bounded LRU of arc → V with an optional TTL. A nil *Cache
// is a valid, permanently-empty cache: every method is nil-safe, so a
// disabled cache needs no call-site guards.
type Cache[V any] struct {
	mu  sync.Mutex
	cap int
	ttl time.Duration
	ll  *list.List // front = most recently used
	// byLast indexes the same elements by their arc's final key, so the
	// arc containing a key is found by one binary search.
	byLast []slot
	now    func() time.Time // test seam
}

// New builds a cache holding at most capacity entries, each served for
// at most ttl after insertion (ttl <= 0 disables aging). A capacity of
// zero or less returns nil — the disabled cache.
func New[V any](capacity int, ttl time.Duration) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[V]{
		cap:    capacity,
		ttl:    ttl,
		ll:     list.New(),
		byLast: make([]slot, 0, capacity),
		now:    time.Now,
	}
}

// Get returns the live entry whose arc contains k, marking it most
// recently used. An expired entry is removed and reported as a miss.
func (c *Cache[V]) Get(k keyspace.Key) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.containingLocked(k)
	if el == nil {
		return zero, false
	}
	e := el.Value.(*entry[V])
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		return zero, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put caches v under the one-key arc {k, k+1}; see PutArc.
func (c *Cache[V]) Put(k keyspace.Key, v V) {
	c.PutArc(keyspace.Range{Start: k, End: k + 1}, v)
}

// PutArc inserts v under arc, or refreshes the entry already cached under
// exactly that arc, restarting its TTL. Every other entry sharing a key
// with arc is dropped, and the least recently used entry is evicted on
// overflow. A full range (Start == End) covers the whole circle.
func (c *Cache[V]) PutArc(arc keyspace.Range, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el := c.containingLocked(arc.Start); el != nil {
		if e := el.Value.(*entry[V]); e.arc == arc {
			e.val, e.expires = v, expires
			c.ll.MoveToFront(el)
			return
		}
	}
	// Clockwise from arc.Start the overlapping entries come first: the one
	// containing arc.Start, then those starting inside arc. So the entry
	// at arc.Start's search position is dropped until it no longer
	// overlaps.
	for len(c.byLast) > 0 {
		el := c.byLast[c.searchLocked(arc.Start)].el
		if !overlaps(el.Value.(*entry[V]).arc, arc) {
			break
		}
		c.removeLocked(el)
	}
	el := c.ll.PushFront(&entry[V]{arc: arc, val: v, expires: expires})
	i, _ := slices.BinarySearchFunc(c.byLast, arc.End-1, cmpSlot)
	c.byLast = slices.Insert(c.byLast, i, slot{last: arc.End - 1, el: el})
	if c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
	}
}

// Invalidate drops the entry whose arc contains k, if present.
func (c *Cache[V]) Invalidate(k keyspace.Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.containingLocked(k); el != nil {
		c.removeLocked(el)
	}
}

// Flush empties the cache — the membership-change hammer: any ring
// topology shift makes every cached resolution suspect at once.
func (c *Cache[V]) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.byLast)
	c.byLast = c.byLast[:0]
}

// Len reports the current entry count.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// searchLocked returns the index of the first entry clockwise from k: the
// first whose final key is k or above, wrapping to the lowest. Since
// entries never overlap, the entry containing k — if any — is that one.
// The cache must not be empty.
func (c *Cache[V]) searchLocked(k keyspace.Key) int {
	i, _ := slices.BinarySearchFunc(c.byLast, k, cmpSlot)
	if i == len(c.byLast) {
		i = 0 // only an arc wrapping past MaxKey can hold k
	}
	return i
}

// containingLocked returns the element whose arc contains k, or nil.
func (c *Cache[V]) containingLocked(k keyspace.Key) *list.Element {
	if len(c.byLast) == 0 {
		return nil
	}
	el := c.byLast[c.searchLocked(k)].el
	if !el.Value.(*entry[V]).arc.Contains(k) {
		return nil
	}
	return el
}

func (c *Cache[V]) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	i, _ := slices.BinarySearchFunc(c.byLast, el.Value.(*entry[V]).arc.End-1, cmpSlot)
	c.byLast = slices.Delete(c.byLast, i, i+1)
}

// overlaps reports whether two arcs share a key.
func overlaps(a, b keyspace.Range) bool {
	return a.Contains(b.Start) || b.Contains(a.Start)
}
