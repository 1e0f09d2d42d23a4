// Rangequery: the data-oriented use case the paper's introduction motivates.
// An order-preserving overlay can answer non-exact (range / similarity)
// queries because contiguous application ranges stay contiguous on the ring
// — here, a product-price index over a skewed price distribution, served by
// a live in-process cluster.
//
//	go run ./examples/rangequery
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	oscar "github.com/oscar-overlay/oscar"
)

// priceToKey maps a price in [0, 1000) monotonically onto the circle. Any
// monotone mapping works; no hashing, or ranges would shatter.
func priceToKey(price float64) oscar.Key {
	return oscar.KeyFromFloat(price / 1000)
}

// query scans [lo, hi) and returns the matching items and the scan's cost.
func query(ctx context.Context, cl oscar.Client, lo, hi float64, opts ...oscar.ScanOption) ([]oscar.Item, oscar.ScanStats) {
	sc := cl.Scan(ctx, priceToKey(lo), priceToKey(hi), opts...)
	var items []oscar.Item
	for sc.Next() {
		items = append(items, sc.Item())
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return items, sc.Stats()
}

func main() {
	ctx := context.Background()

	// Peers position themselves according to the data distribution, so the
	// index load spreads even though prices cluster heavily.
	c, err := oscar.StartCluster(ctx, 64,
		oscar.WithSeed(11),
		oscar.WithKeys(oscar.GnutellaKeys()), // stand-in for "where the data is"
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl := c.Node(0)

	// Index 5000 products with clustered prices (most cost 10–50).
	rnd := rand.New(rand.NewSource(5))
	indexed := 0
	for i := 0; i < 5000; i++ {
		price := 10 + rnd.ExpFloat64()*40
		if price >= 1000 {
			continue
		}
		name := fmt.Sprintf("product-%04d@%.2f", i, price)
		if _, err := cl.Put(ctx, priceToKey(price), []byte(name)); err != nil {
			log.Fatal(err)
		}
		indexed++
	}
	fmt.Printf("indexed %d products across %d peers\n", indexed, len(c.Nodes()))

	// Range query: everything priced in [25, 30).
	items, st := query(ctx, cl, 25, 30)
	fmt.Printf("\nproducts priced in [25, 30): %d hits, %d messages, %d shards scanned\n",
		len(items), st.Cost, st.PeersScanned)
	for i, it := range items {
		if i >= 5 {
			fmt.Printf("  … and %d more\n", len(items)-5)
			break
		}
		fmt.Printf("  %s\n", it.Value)
	}

	// Top-k flavoured query: the 10 cheapest products above 100.
	items, _ = query(ctx, cl, 100, 1000-1e-9, oscar.WithLimit(10))
	fmt.Printf("\n10 cheapest products above 100:\n")
	for _, it := range items {
		fmt.Printf("  %s\n", it.Value)
	}
}
