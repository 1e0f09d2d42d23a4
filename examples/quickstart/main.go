// Quickstart: the context-first Client API on a live in-process cluster —
// boot a ring, look keys up, store, fetch, scan and delete data. The same
// Client runs over TCP (see examples/tcpcluster).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	oscar "github.com/oscar-overlay/oscar"
)

func main() {
	ctx := context.Background()

	// 64 message-passing peers on an in-memory fabric, keyed by a
	// heavy-tailed distribution: every peer runs the real protocol (join,
	// stabilisation, walk-based long-link acquisition) without sockets.
	// Every node is a Client, safe for concurrent use.
	c, err := oscar.StartCluster(ctx, 64, oscar.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl := c.Node(0)

	info, err := cl.Info(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster up: %d peers\n", info.Peers)

	// Route to the owner of a key. Routing is greedy over each peer's ring
	// pointers and long-range links; cost is the number of messages.
	key := oscar.KeyFromFloat(0.42)
	route, err := cl.Lookup(ctx, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup %v: owner at key %v in %d messages\n", key, route.Owner.Key, route.Cost)

	// The overlay is an order-preserving index: store items and query them
	// back, by key or by range.
	for i := 0; i < 100; i++ {
		k := oscar.KeyFromFloat(0.30 + 0.001*float64(i))
		if _, err := cl.Put(ctx, k, []byte(fmt.Sprintf("item-%03d", i))); err != nil {
			log.Fatal(err)
		}
	}
	got, err := cl.Get(ctx, oscar.KeyFromFloat(0.35))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get 0.35: %q (%d messages)\n", got.Value, got.Cost)

	sc := cl.Scan(ctx, oscar.KeyFromFloat(0.32), oscar.KeyFromFloat(0.36))
	items := 0
	for sc.Next() {
		items++
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	st := sc.Stats()
	fmt.Printf("scan [0.32,0.36): %d items from %d peers, %d messages\n",
		items, st.PeersScanned, st.Cost)

	// Deletes are first-class; a missing key is the typed ErrNotFound.
	if _, err := cl.Delete(ctx, oscar.KeyFromFloat(0.35)); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.Get(ctx, oscar.KeyFromFloat(0.35)); errors.Is(err, oscar.ErrNotFound) {
		fmt.Println("get 0.35 after delete: not found (as it should be)")
	}
}
