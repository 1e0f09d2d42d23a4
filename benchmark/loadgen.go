package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/oscar-overlay/oscar"
	"github.com/oscar-overlay/oscar/internal/rng"
)

// The load generator is a closed loop: two clients, client i entering the
// ring through node i, each sending its next operation only after the
// previous one returned. Node.Put/Get/Scan are blocking calls, so callers
// that each wait for a reply are the honest model. Each client owns a
// disjoint stripe of the keys, so it knows the exact answer every read must
// give: the last write or delete it saw acknowledged.

type opKind int

const (
	kGet opKind = iota
	kPut
	kDelete
	kScan
	nKinds
)

var kindNames = [nKinds]string{"get", "put", "delete", "scan"}

// valueHeader is the (key, version) prefix every value carries.
const valueHeader = 12

// encodeValue builds the value of the given version of key: the header,
// padded to size with a byte that depends on the version. A fresh slice
// every time: the in-memory fabric hands the slice to the store as is.
func encodeValue(key oscar.Key, ver uint32, size int) []byte {
	v := make([]byte, max(size, valueHeader))
	binary.LittleEndian.PutUint64(v, uint64(key))
	binary.LittleEndian.PutUint32(v[8:], ver)
	pad := v[valueHeader:]
	for i := range pad {
		pad[i] = byte(ver)
	}
	return v
}

// shared is what the clients of one ring have in common.
type shared struct {
	sp *spec
	// preloaded is every preloaded key in ascending order: the scanner's
	// model, since preloaded keys are never changed on a scanning workload.
	preloaded []oscar.Key
	// inserted holds every key the inserter has begun to put. A scan may or
	// may not see such a key, but may see no other key outside preloaded.
	mu       sync.Mutex
	inserted map[oscar.Key]struct{}
}

// client is one closed-loop caller and its model of its own key stripe.
type client struct {
	id   int
	role role
	sh   *shared
	node *oscar.Node
	tr   *tracer
	rnd  *rand.Rand
	zipf *rand.Zipf

	keys []oscar.Key
	ver  []uint32 // last acknowledged version of keys[i]
	gone []bool   // the last acknowledged operation on keys[i] was a delete
	// owner is the address of the node that acknowledged the last put of
	// keys[i], kept on durable rings for the crash-recovery check.
	owner []string

	// Per window, reset by begin.
	start time.Time
	lat   [nKinds][]sample
	cost  [nKinds]int // summed message cost
	items int         // items streamed by scans
	// ackedBytes is the user bytes of every put acknowledged so far.
	ackedBytes int
	spans      *spanBuf
	page       []oscar.Item

	attempted, failed int
	errs              []string
}

// newClients draws the data keys from the seed and deals them out to the
// clients in turn.
func newClients(sp *spec, seed int64, r *ring, tr *tracer) []*client {
	keyRand := rng.Derive(seed, "data-keys")
	seen := make(map[oscar.Key]struct{}, sp.keys)
	sh := &shared{sp: sp, inserted: map[oscar.Key]struct{}{}}
	clients := make([]*client, sp.clients)
	for i := range clients {
		clients[i] = &client{
			id: i, role: sp.roles[i%len(sp.roles)], sh: sh, node: r.nodes[i], tr: tr,
			rnd: rng.DeriveN(seed, "client", i), spans: tr.newBuf(),
		}
	}
	for len(seen) < sp.keys {
		k := oscar.GnutellaKeys().Sample(keyRand)
		if _, dup := seen[k]; dup {
			continue
		}
		c := clients[len(seen)%len(clients)]
		seen[k] = struct{}{}
		c.keys = append(c.keys, k)
		sh.preloaded = append(sh.preloaded, k)
	}
	sort.Slice(sh.preloaded, func(i, j int) bool { return sh.preloaded[i] < sh.preloaded[j] })
	for _, c := range clients {
		c.ver, c.gone = make([]uint32, len(c.keys)), make([]bool, len(c.keys))
		if sp.fsync != "" {
			c.owner = make([]string, len(c.keys))
		}
		if sp.zipf > 0 {
			c.zipf = rand.NewZipf(c.rnd, sp.zipf, 1, uint64(len(c.keys)-1))
		}
	}
	return clients
}

// fail counts one failed or wrongly answered operation, keeping the first
// few descriptions.
func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// pick chooses a key of the stripe. Keys were drawn at random, so rank i of
// the Zipf law lands anywhere on the ring.
func (c *client) pick() int {
	if c.zipf != nil {
		return int(c.zipf.Uint64())
	}
	return c.rnd.Intn(len(c.keys))
}

// begin resets the per-window measurements.
func (c *client) begin(start time.Time) {
	c.start = start
	for k := range c.lat {
		c.lat[k] = c.lat[k][:0]
		c.cost[k] = 0
	}
	c.items = 0
}

// timed runs one operation, recording its latency and, in a traced window,
// its client span; fn receives the context that names that span.
func (c *client) timed(ctx context.Context, kind opKind, fn func(ctx context.Context)) {
	c.attempted++
	var s span
	traced := c.tr.on.Load()
	if traced {
		s = span{ID: c.tr.nextID.Add(1), Op: kindNames[kind], Node: c.node.Addr(), Layer: layerClient, Start: c.tr.now()}
		ctx = withSpan(ctx, s.ID)
	}
	t0 := time.Now()
	fn(ctx)
	end := time.Now()
	if traced {
		s.End = c.tr.now()
		c.spans.add(s)
	}
	c.lat[kind] = append(c.lat[kind], sample{at: end.Sub(c.start), dur: end.Sub(t0)})
}

// preload puts version 1 of every key of the stripe.
func (c *client) preload(ctx context.Context) {
	c.begin(time.Now())
	for i := range c.keys {
		c.put(ctx, i)
	}
}

func (c *client) put(ctx context.Context, i int) {
	key, ver := c.keys[i], c.ver[i]+1
	val := encodeValue(key, ver, c.sh.sp.valueSize)
	var resp oscar.PutResponse
	var err error
	c.timed(ctx, kPut, func(ctx context.Context) { resp, err = c.node.Put(ctx, key, val) })
	c.cost[kPut] += resp.Cost
	switch {
	case err != nil:
		c.fail("put %v: %v", key, err)
		return
	case resp.Replaced != (c.ver[i] > 0 && !c.gone[i]):
		c.fail("put %v: replaced=%v, but the model says live=%v", key, resp.Replaced, !resp.Replaced)
	}
	c.ver[i], c.gone[i] = ver, false
	c.ackedBytes += len(val)
	if c.owner != nil {
		c.owner[i] = resp.Owner.Addr
	}
}

func (c *client) get(ctx context.Context, i int) {
	key := c.keys[i]
	var resp oscar.GetResponse
	var err error
	c.timed(ctx, kGet, func(ctx context.Context) { resp, err = c.node.Get(ctx, key) })
	c.cost[kGet] += resp.Cost
	c.checkRead(key, i, resp.Value, err)
}

// checkRead holds one read of keys[i] against the model.
func (c *client) checkRead(key oscar.Key, i int, got []byte, err error) {
	switch {
	case c.gone[i]:
		if !errors.Is(err, oscar.ErrNotFound) {
			c.fail("get %v: deleted key answered (err %v)", key, err)
		}
	case err != nil:
		c.fail("get %v: %v", key, err)
	case !bytes.Equal(got, encodeValue(key, c.ver[i], c.sh.sp.valueSize)):
		c.fail("get %v: wrong value (want version %d)", key, c.ver[i])
	}
}

func (c *client) delete(ctx context.Context, i int) {
	key := c.keys[i]
	var resp oscar.DeleteResponse
	var err error
	c.timed(ctx, kDelete, func(ctx context.Context) { resp, err = c.node.Delete(ctx, key) })
	c.cost[kDelete] += resp.Cost
	// Deleting an already deleted key answers ErrNotFound, correctly.
	if c.gone[i] != errors.Is(err, oscar.ErrNotFound) || (!c.gone[i] && err != nil) {
		c.fail("delete %v: err %v, model says deleted=%v", key, err, c.gone[i])
		return
	}
	c.gone[i] = true
}

// insert puts a key the ring has never seen.
func (c *client) insert(ctx context.Context) {
	sh := c.sh
	var key oscar.Key
	for {
		key = oscar.GnutellaKeys().Sample(c.rnd)
		i := sort.Search(len(sh.preloaded), func(i int) bool { return sh.preloaded[i] >= key })
		sh.mu.Lock()
		_, dup := sh.inserted[key]
		if !dup && (i == len(sh.preloaded) || sh.preloaded[i] != key) {
			sh.inserted[key] = struct{}{}
			sh.mu.Unlock()
			break
		}
		sh.mu.Unlock()
	}
	val := encodeValue(key, 1, sh.sp.valueSize)
	var resp oscar.PutResponse
	var err error
	c.timed(ctx, kPut, func(ctx context.Context) { resp, err = c.node.Put(ctx, key, val) })
	c.cost[kPut] += resp.Cost
	c.ackedBytes += len(val)
	if err != nil || resp.Replaced {
		c.fail("insert %v: err %v, replaced=%v", key, err, resp.Replaced)
	}
}

// scan reads scanLimit items clockwise from a random preloaded key and
// checks them: ascending order, exactly scanLimit items, every preloaded key
// between the first and the last returned present with its value, and
// nothing else but keys the inserter has put.
func (c *client) scan(ctx context.Context) {
	sh, limit := c.sh, c.sh.sp.scanLimit
	pre := sh.preloaded
	at := c.rnd.Intn(len(pre) - limit)
	var err error
	c.page = c.page[:0]
	c.timed(ctx, kScan, func(ctx context.Context) {
		sc := c.node.Scan(ctx, pre[at], pre[len(pre)-1], oscar.WithLimit(limit))
		for sc.Next() {
			c.page = append(c.page, sc.Item())
		}
		err = sc.Err()
		c.cost[kScan] += sc.Stats().Cost
	})
	c.items += len(c.page)
	if err != nil || len(c.page) != limit {
		c.fail("scan from %v: %d items (want %d), err %v", pre[at], len(c.page), limit, err)
		return
	}
	for j, it := range c.page {
		if j > 0 && it.Key <= c.page[j-1].Key {
			c.fail("scan from %v: out of order at item %d", pre[at], j)
			return
		}
		if !bytes.Equal(it.Value, encodeValue(it.Key, 1, sh.sp.valueSize)) {
			c.fail("scan from %v: wrong value under %v", pre[at], it.Key)
			return
		}
		if it.Key == pre[at] {
			at++
			continue
		}
		sh.mu.Lock()
		_, ok := sh.inserted[it.Key]
		sh.mu.Unlock()
		if it.Key > pre[at] || !ok {
			c.fail("scan: got %v where preloaded key %v was due (inserted=%v)", it.Key, pre[at], ok)
			return
		}
	}
}

// step runs one operation of the client's role.
func (c *client) step(ctx context.Context) {
	switch r := c.role; {
	case r.scan:
		c.scan(ctx)
	case r.insert:
		c.insert(ctx)
	default:
		switch u := c.rnd.Float64(); {
		case u < r.get:
			c.get(ctx, c.pick())
		case u < r.get+r.put:
			c.put(ctx, c.pick())
		default:
			c.delete(ctx, c.pick())
		}
	}
}

// window is what the clients measured in one stretch of driving.
type window struct {
	dur   time.Duration
	lat   [nKinds][]sample
	cost  [nKinds]int
	items int
	// lo and hi bound the window on the tracer's clock.
	lo, hi int64
}

// ops is the number of operations the window completed.
func (w *window) ops() int {
	n := 0
	for _, l := range w.lat {
		n += len(l)
	}
	return n
}

// drive runs every client for dur and returns what they measured.
func drive(ctx context.Context, clients []*client, dur time.Duration) *window {
	w := &window{dur: dur, lo: clients[0].tr.now()}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.begin(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				c.step(ctx)
			}
		}()
	}
	wg.Wait()
	w.hi = clients[0].tr.now()
	for _, c := range clients {
		for k := range c.lat {
			w.lat[k] = append(w.lat[k], c.lat[k]...)
			w.cost[k] += c.cost[k]
		}
		w.items += c.items
	}
	return w
}
