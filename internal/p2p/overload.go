package p2p

import (
	"bytes"
	"context"
	"errors"
	"time"

	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// Overload retry policy: transport.ErrOverloaded means the peer shed the
// request before executing it — backpressure, not death. Treating it like
// ErrUnreachable evicts live peers (unlink, adopt-away, backtrack) and
// turns a load spike into a membership event. Instead, every call-site
// retries once after a short jittered backoff when the context still has
// the budget for it, and otherwise surfaces the typed error so the caller
// can tell a saturated peer from a dead one. Because a shed request never
// executed, this retry is safe even for non-idempotent ops (migrate).
const (
	// overloadBackoffBase is the minimum wait before the single retry.
	overloadBackoffBase = 5 * time.Millisecond
	// overloadBackoffJitter is the extra uniform wait in [0, jitter) —
	// de-synchronising the retries of the very callers whose simultaneity
	// overloaded the peer in the first place.
	overloadBackoffJitter = 10 * time.Millisecond
)

// callRetry is CallCtx plus the overload contract: a call shed with
// transport.ErrOverloaded is retried once after a jittered backoff,
// provided the context's deadline leaves room for the wait plus a
// comparable round trip; otherwise (or when the retry is shed too) the
// typed error is returned for the caller to surface, never to treat as
// proof of death. sends is the number of messages the call put on the
// fabric, the retry included — what an op's Cost charges for it.
//
// A call the node addresses to itself — a walk's first step, a replica
// push when the writer sits in the owner's chain, an op on a key the node
// owns — goes straight to the handler: no socket, no pooled connection
// to self, no message. What a frame would have copied is copied on this
// path alone — by the handler where it stores request bytes (dispatch's
// borrowed), here for the bytes of the response — so the store never keeps
// a slice the caller still holds, nor the caller one of the store's.
func (n *Node) callRetry(ctx context.Context, addr transport.Addr, req *transport.Request) (resp *transport.Response, sends int, err error) {
	if addr == n.self.Addr {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		resp := n.dispatch(req, true)
		ownResponse(resp)
		return resp, 0, nil
	}
	resp, err = n.tr.CallCtx(ctx, addr, req)
	if err == nil || !errors.Is(err, transport.ErrOverloaded) {
		return resp, 1, err
	}
	backoff := overloadBackoffBase + time.Duration(n.rnd.Float64()*float64(overloadBackoffJitter))
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < 2*backoff {
		return resp, 1, err // no budget to wait out the backoff
	}
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, 1, ctx.Err()
	case <-t.C:
	}
	resp, err = n.tr.CallCtx(ctx, addr, req)
	return resp, 2, err
}

// ownResponse replaces, in a response the handler has just built, the
// bytes that alias the store — a get's value, a page's item values — with
// copies.
func ownResponse(resp *transport.Response) {
	resp.Value = bytes.Clone(resp.Value)
	resp.Items = ownItems(resp.Items)
}

// ownItems copies items with their values laid out back to back in one
// buffer of exactly their size, each capped at its own length: what a TCP
// frame's decoder hands the handler, done here for the in-process path.
func ownItems(items []storage.Item) []storage.Item {
	if len(items) == 0 {
		return items
	}
	size := 0
	for i := range items {
		size += len(items[i].Value)
	}
	buf := make([]byte, 0, size)
	own := make([]storage.Item, len(items))
	for i, it := range items {
		buf = append(buf, it.Value...)
		own[i] = storage.Item{Key: it.Key, Value: buf[len(buf)-len(it.Value) : len(buf) : len(buf)]}
	}
	return own
}

// Read retry policy: a read re-sent to a peer that already executed it is
// harmless — unlike a write, where "unreachable" may mean
// executed-but-unacked. So idempotent read paths (Get at the owner, scan
// pages, ring walks) also ride out transient unreachability — a dropped
// datagram on a lossy link, a connection reset mid-handshake — instead of
// immediately treating the peer as dead and falling back to replicas that
// may not exist (r=1 runs no chain, and a chain member honestly reporting
// "absent" would turn one lost packet into a wrong not-found).
const (
	// readRetryAttempts bounds the total sends of one read (first try
	// included).
	readRetryAttempts = 4
	// readRetryStep is the pause between read retries.
	readRetryStep = 5 * time.Millisecond
)

// readRetry is callRetry for idempotent reads: on top of the overload
// contract, unreachable answers are retried up to readRetryAttempts total
// sends with short pauses. Overload still surfaces per the overload
// contract (callRetry already retried once), and application-level
// failures (resp.OK = false) are never retried. sends counts every
// message put on the fabric across the attempts.
func (n *Node) readRetry(ctx context.Context, addr transport.Addr, req *transport.Request) (resp *transport.Response, sends int, err error) {
	for attempt := 0; attempt < readRetryAttempts; attempt++ {
		if attempt > 0 {
			if serr := sleepCtx(ctx, readRetryStep); serr != nil {
				return resp, sends, err
			}
		}
		var s int
		resp, s, err = n.callRetry(ctx, addr, req)
		sends += s
		if err == nil || errors.Is(err, transport.ErrOverloaded) {
			return resp, sends, err
		}
		if ctx.Err() != nil {
			return resp, sends, err
		}
	}
	return resp, sends, err
}

// fanoutRetry sends req to every addr in parallel through callRetry, so
// each leg honours the overload retry contract. Use it where a shed leg
// would otherwise read as a dead peer or a lost ack. sends is the
// messages all legs put on the fabric, retries included.
func (n *Node) fanoutRetry(ctx context.Context, addrs []transport.Addr, req *transport.Request) (results []transport.FanoutResult, sends int) {
	return n.fanout(ctx, addrs, req, (*Node).callRetry)
}

// fanoutReadRetry is fanoutRetry for idempotent probes (pings, succ-list
// reads): each leg additionally rides out transient unreachability via
// readRetry. Liveness sweeps must use this, or one dropped datagram on a
// lossy link reads as a dead peer and splices a live node out of the ring.
func (n *Node) fanoutReadRetry(ctx context.Context, addrs []transport.Addr, req *transport.Request) (results []transport.FanoutResult, sends int) {
	return n.fanout(ctx, addrs, req, (*Node).readRetry)
}

// fanout runs call against every addr in parallel (see parallel: the last
// leg on the caller's goroutine, the others on resident legs) and returns
// the per-peer results in input order with the legs' summed sends. Every
// leg runs to its end and fills its slot, also when ctx is cancelled
// mid-flight — and then the results cannot tell a dead peer from a caller
// that gave up, so callers check ctx.Err() before reading failures as
// deaths.
func (n *Node) fanout(ctx context.Context, addrs []transport.Addr, req *transport.Request,
	call func(*Node, context.Context, transport.Addr, *transport.Request) (*transport.Response, int, error),
) ([]transport.FanoutResult, int) {
	results := make([]transport.FanoutResult, len(addrs))
	sends := make([]int, len(addrs))
	n.parallel(len(addrs), func(i int) {
		resp, s, err := call(n, ctx, addrs[i], req)
		results[i] = transport.FanoutResult{Addr: addrs[i], Resp: resp, Err: err}
		sends[i] = s
	})
	total := 0
	for _, s := range sends {
		total += s
	}
	return results, total
}

// aliveResult reads a liveness-probe outcome: an OK response is proof of
// life, and so is an overload shed — only a running peer can shed. Ping
// sweeps (successor adoption, backtracking) must use this, not OK(), or
// a peer riding out a load spike gets adopted away from.
func aliveResult(r transport.FanoutResult) bool {
	return r.OK() || errors.Is(r.Err, transport.ErrOverloaded)
}
