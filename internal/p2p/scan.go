package p2p

import (
	"context"
	"fmt"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// Churn recovery pacing for a scan resume: when a shard's owner and its
// whole replica chain stop answering, the ring is mid-heal — maintenance
// runs on a timer, so routing stays stale for a beat. The session re-routes
// at scanRetryStep intervals for up to scanRetryGrace before giving up.
const (
	scanRetryGrace = 10 * time.Second
	scanRetryStep  = 20 * time.Millisecond
)

// maxScanItems caps the items of one scan page. A page is copied from the
// store under the node's lock, about 20 ns an item (storage's
// BenchmarkScanPage: ~170 µs for a full page, less than one 512-item
// InsertBulk, on a 2-vCPU Xeon), so the cap bounds that hold while a
// reader still takes all an owner holds of a range of usual size in one
// round trip. Replicate pushes and migrate chunks keep PageMaxItems, which
// would cost a scan one round trip per 512 items.
const maxScanItems = 16 * storage.PageMaxItems

// ScanChunk is one page of a streaming arc scan: the items, whether the
// whole arc is now exhausted, and the message/peer accounting the page
// cost. Items never exceed maxScanItems or PageMaxBytes of values, so a
// scan holds at most one bounded page in memory per hop.
type ScanChunk struct {
	// Items are this page's records, clockwise from the requested cursor.
	Items []storage.Item
	// Done reports that the arc is exhausted: no further page exists.
	Done bool
	// Cost is the number of messages this page spent (routing, scan RPCs,
	// fallback probes).
	Cost int
	// Peers is how many peers' shards started contributing within this
	// page — a peer serving several consecutive pages is counted once, on
	// its first.
	Peers int
}

// ScanSession drives one paged scan over the clockwise arc [start, end):
// it routes to the owner of the cursor — the walk brings that shard's
// first page back with it — pulls further bounded pages with
// OpScan, follows successor pointers shard by shard, and — when the
// serving peer dies between pages — resumes through the owner's replica
// chain (piggybacked on routing), whose replica stores cover the dead
// arc, before falling back to one fresh route. A session is not safe for
// concurrent use; the cursor passed to NextPage carries all resume state,
// so a fresh session can continue an old session's scan.
type ScanSession struct {
	n  *Node
	rg keyspace.Range

	cur     transport.PeerRef   // the peer serving the current shard
	chain   []transport.PeerRef // fallback replicas behind cur, best first
	have    bool                // cur is valid
	counted bool                // cur already counted in a chunk's Peers
}

// NewScanSession opens a scan session over [start, end). No messages are
// sent until the first NextPage.
func (n *Node) NewScanSession(start, end keyspace.Key) *ScanSession {
	return &ScanSession{n: n, rg: keyspace.Range{Start: start, End: end}}
}

// NextPage fetches the next page of the scan, clockwise from cursor (which
// must lie within the session's arc). want caps the page's item count on
// top of the page bounds; <= 0 means the page bounds alone. A returned
// chunk with Done=false always makes progress: either it carries items
// (resume from the last key plus one) or the session advanced to a
// further shard internally.
func (s *ScanSession) NextPage(ctx context.Context, cursor keyspace.Key, want int) (ScanChunk, error) {
	var out ScanChunk
	rem := keyspace.Range{Start: cursor, End: s.rg.End}
	req := &transport.Request{Op: transport.OpScan, Range: rem, Limit: want, From: s.n.self}
	// retryUntil is zero until the first full resume failure (owner and
	// chain both unreachable); from then on it bounds the churn-recovery
	// retries for this page.
	var retryUntil time.Time
	for hop := 0; hop < maxRouteHops; hop++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		// The routing step brings the shard's first page with it; later
		// pages, and an owner found without being asked, take the scan RPC.
		var resp *transport.Response
		var err error
		if !s.have {
			rt, cost, rerr := s.n.resolveRead(ctx, cursor, req)
			out.Cost += cost
			if rerr != nil {
				// Routing itself fails transiently while the ring digests a
				// crash or a lossy link eats a hop; the first failure opens
				// the churn-recovery window, and inside it the session waits
				// out one maintenance beat and re-routes.
				if retryUntil.IsZero() {
					retryUntil = time.Now().Add(scanRetryGrace)
				} else if time.Now().After(retryUntil) {
					return out, rerr
				}
				if serr := sleepCtx(ctx, scanRetryStep); serr != nil {
					return out, serr
				}
				continue
			}
			s.cur, s.chain, s.have, s.counted = rt.owner, rt.chain, true, false
			resp = rt.result
		}
		served := s.cur
		if resp == nil {
			var sends int
			resp, sends, err = s.n.readRetry(ctx, s.cur.Addr, req)
			out.Cost += sends
		}
		if err != nil || !resp.OK {
			if cerr := ctx.Err(); cerr != nil {
				return out, cerr
			}
			// The serving peer died between pages: resume through its
			// replica chain — each member's replica store covers the dead
			// peer's arc, so the cursor loses nothing.
			resp = nil
			for len(s.chain) > 0 {
				fb := s.chain[0]
				s.chain = s.chain[1:]
				r, sends, ferr := s.n.callRetry(ctx, fb.Addr, req)
				out.Cost += sends
				if ferr == nil && r.OK {
					resp, served = r, fb
					s.cur, s.counted = fb, false
					break
				}
				if cerr := ctx.Err(); cerr != nil {
					return out, cerr
				}
			}
			if resp == nil {
				// Owner and chain all gone (or the chain was never
				// learned): re-route against the healing ring, paced by the
				// churn-recovery window.
				if retryUntil.IsZero() {
					retryUntil = time.Now().Add(scanRetryGrace)
				} else if time.Now().After(retryUntil) {
					return out, fmt.Errorf("p2p: scan: shard %s and its chain unreachable: %v", served.Addr, err)
				}
				s.have = false
				if serr := sleepCtx(ctx, scanRetryStep); serr != nil {
					return out, serr
				}
				continue
			}
		}
		retryUntil = time.Time{}
		if !s.counted {
			out.Peers++
			s.counted = true
		}
		out.Items = resp.Items
		if resp.More {
			// The shard has more in range than one frame: the next call
			// resumes at the same peer from the cursor.
			return out, nil
		}
		// This peer's view of the range is exhausted. The scan is done
		// once the serving peer's arc extends past the range end (its key
		// is beyond it) or the ring is a single peer; otherwise hop to
		// the successor it reported.
		if !rem.Contains(served.Key) || resp.Peer.Addr == served.Addr || resp.Peer.Addr == "" {
			out.Done = true
			return out, nil
		}
		s.advanceTo(resp.Peer)
		if len(out.Items) > 0 {
			return out, nil
		}
		// An empty shard: keep walking within this call so the caller
		// always observes progress.
	}
	return out, fmt.Errorf("p2p: scan: did not terminate")
}

// sleepCtx blocks for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// advanceTo moves the session to the next shard's peer. When the reported
// successor heads the current fallback chain, the chain's tail stays
// usable — the peers behind a node replicate its arc too — otherwise the
// chain is unknown until the next routing step learns a fresh one.
func (s *ScanSession) advanceTo(next transport.PeerRef) {
	if len(s.chain) > 0 && s.chain[0].Addr == next.Addr {
		s.chain = s.chain[1:]
	} else {
		s.chain = nil
	}
	s.cur, s.counted = next, false
}
