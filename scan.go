package oscar

import (
	"context"
	"fmt"
	"iter"
)

// ScanOption tunes one Scan call.
type ScanOption func(*scanConfig)

type scanConfig struct {
	pageSize int
	limit    int
}

// WithPageSize caps how many items each scan page requests. The server
// additionally bounds every page (8192 items / 4 MiB of values), so this
// only ever shrinks pages — useful to smooth latency or to exercise
// paging in tests. <= 0 (the default) means the server's bounds alone.
func WithPageSize(n int) ScanOption {
	return func(c *scanConfig) { c.pageSize = n }
}

// WithLimit stops the scan after n items. <= 0 (the default) means
// unlimited — the scan runs to the end of the range.
func WithLimit(n int) ScanOption {
	return func(c *scanConfig) { c.limit = n }
}

// ScanStats reports the accumulated cost of a scan so far.
type ScanStats struct {
	// Cost is the total message count: routing steps, page fetches and
	// failover probes.
	Cost int
	// PeersScanned is how many distinct peers served pages.
	PeersScanned int
	// Pages is the number of page fetches performed.
	Pages int
}

// scanChunk is one fetched page: the raw items, whether the range is
// exhausted, and the page's message/peer accounting.
type scanChunk struct {
	items []Item
	done  bool
	cost  int
	peers int
}

// scanPager fetches one page of a scan, clockwise from cursor, with at
// most want items (<= 0: the server's page bounds alone). The pager keeps
// its own shard position between calls; the cursor carries the resume key.
type scanPager func(ctx context.Context, cursor Key, want int) (scanChunk, error)

// Scanner streams the items of a range query page by page. It holds at
// most one page in memory at a time; the caller pulls with Next/Item or
// ranges over All. A Scanner is not safe for concurrent use.
//
//	sc := client.Scan(ctx, lo, hi)
//	for item, err := range sc.All() {
//	    if err != nil {
//	        return err
//	    }
//	    use(item)
//	}
type Scanner struct {
	ctx   context.Context
	rg    Range
	cfg   scanConfig
	fetch scanPager

	cursor  Key
	page    []Item
	idx     int
	emitted int
	stats   ScanStats
	err     error
	done    bool // no more pages to fetch
	fin     bool // iteration fully finished (page drained too)
}

// newScanner builds a Scanner over [start, end) driven by fetch.
func newScanner(ctx context.Context, start, end Key, opts []ScanOption, fetch scanPager) *Scanner {
	var cfg scanConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Scanner{ctx: ctx, rg: Range{Start: start, End: end}, cfg: cfg, fetch: fetch, cursor: start}
	if start == end {
		// A degenerate arc: Start == End denotes the full circle in range
		// semantics, which a scan refuses rather than silently walking the
		// whole ring — split a full-circle read into two halves instead.
		s.err = fmt.Errorf("%w: start == end (full-circle scan; split into two ranges)", ErrBadRange)
		s.done, s.fin = true, true
	}
	return s
}

// failedScanner is a Scanner that yields only err (client closed, nil
// context, ...).
func failedScanner(err error) *Scanner {
	return &Scanner{err: err, done: true, fin: true}
}

// Next advances to the next item. It returns false when the scan is
// exhausted or failed; check Err afterwards. Fetching happens lazily: a
// Next that crosses a page boundary performs the network round trips for
// the following page.
func (s *Scanner) Next() bool {
	if s.fin {
		return false
	}
	if s.idx < len(s.page) {
		s.idx++
		s.emitted++
		return true
	}
	for !s.done {
		if err := s.ctx.Err(); err != nil {
			s.err, s.done, s.fin = err, true, true
			return false
		}
		want := s.cfg.pageSize
		if s.cfg.limit > 0 {
			left := s.cfg.limit - s.emitted
			if left <= 0 {
				s.done, s.fin = true, true
				return false
			}
			if want <= 0 || left < want {
				want = left
			}
		}
		chunk, err := s.fetch(s.ctx, s.cursor, want)
		s.stats.Cost += chunk.cost
		s.stats.PeersScanned += chunk.peers
		s.stats.Pages++
		if err != nil {
			s.err, s.done, s.fin = err, true, true
			return false
		}
		raw := chunk.items
		if len(raw) > 0 {
			// Advance the cursor past the last raw item, then keep only the
			// items still ahead of the old cursor and inside the range — a
			// safety net against a lagging replica re-serving keys a
			// previous page already covered.
			// The filter almost never drops anything, so the page is
			// the raw slice itself until the first rejected item; only
			// then is the kept part copied out (raw is never written).
			rem := Range{Start: s.cursor, End: s.rg.End}
			page := raw
			for i := range raw {
				if rem.Contains(raw[i].Key) {
					continue
				}
				page = append(make([]Item, 0, len(raw)-1), raw[:i]...)
				for _, it := range raw[i+1:] {
					if rem.Contains(it.Key) {
						page = append(page, it)
					}
				}
				break
			}
			next := raw[len(raw)-1].Key + 1
			if !rem.Contains(next) {
				s.done = true
			}
			s.cursor = next
			if s.cfg.limit > 0 {
				if left := s.cfg.limit - s.emitted; len(page) >= left {
					page = page[:left]
					s.done = true
				}
			}
			s.page, s.idx = page, 0
		} else {
			s.page, s.idx = nil, 0
		}
		if chunk.done {
			s.done = true
		}
		if s.idx < len(s.page) {
			s.idx++
			s.emitted++
			return true
		}
	}
	s.fin = true
	return false
}

// Item returns the item Next advanced to. It is only valid after a Next
// that returned true.
func (s *Scanner) Item() Item { return s.page[s.idx-1] }

// Err returns the error that terminated the scan, or nil after a clean
// finish. Context cancellation surfaces here untranslated.
func (s *Scanner) Err() error { return s.err }

// Stats reports the message cost accumulated so far; it may be read mid-
// scan or after the end.
func (s *Scanner) Stats() ScanStats { return s.stats }

// All adapts the scanner to a range-over-func iterator: it yields every
// item in clockwise key order, then — if the scan failed — a final pair
// with the zero Item and the error. Breaking out of the loop stops the
// scan without further fetches.
func (s *Scanner) All() iter.Seq2[Item, error] {
	return func(yield func(Item, error) bool) {
		for s.Next() {
			if !yield(s.Item(), nil) {
				return
			}
		}
		if err := s.Err(); err != nil {
			yield(Item{}, err)
		}
	}
}
