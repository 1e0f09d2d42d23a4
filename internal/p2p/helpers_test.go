package p2p

import (
	"context"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// mustNode is the test-side NewNode: without a DataDir it cannot fail,
// so tests fatal instead of threading the error.
func mustNode(tb testing.TB, tr transport.Transport, cfg Config) *Node {
	tb.Helper()
	n, err := NewNode(tr, cfg)
	if err != nil {
		tb.Fatalf("NewNode: %v", err)
	}
	return n
}

// scanned is what scanAll collected: the items in clockwise key order, the
// total message cost and how many peers' shards were visited.
type scanned struct {
	Items        []storage.Item
	Cost         int
	PeersScanned int
}

// scanAll drains a ScanSession from n over [start, end) the way the public
// Scan does: page by page, resuming one past the last item, until the
// session is done or limit items are in hand (limit <= 0 is unlimited).
func scanAll(ctx context.Context, n *Node, start, end keyspace.Key, limit int) (scanned, error) {
	var res scanned
	rg := keyspace.Range{Start: start, End: end}
	s := n.NewScanSession(start, end)
	cursor := start
	for {
		want := 0
		if limit > 0 {
			want = limit - len(res.Items)
		}
		chunk, err := s.NextPage(ctx, cursor, want)
		res.Cost += chunk.Cost
		res.PeersScanned += chunk.Peers
		if err != nil {
			return res, err
		}
		res.Items = append(res.Items, chunk.Items...)
		if limit > 0 && len(res.Items) >= limit {
			res.Items = res.Items[:limit]
			return res, nil
		}
		if chunk.Done {
			return res, nil
		}
		if len(chunk.Items) == 0 {
			continue // NextPage advanced shards; the cursor stands
		}
		cursor = chunk.Items[len(chunk.Items)-1].Key + 1
		if !rg.Contains(cursor) {
			return res, nil
		}
	}
}
