// Tcpcluster: a live Oscar cluster on loopback TCP sockets through the
// public oscar.Client API — real listeners, pooled persistent connections
// multiplexing concurrent RPCs, Chord-style stabilisation, walk-based
// partition discovery and link acquisition, puts/gets/deletes/range
// queries, a concurrent workload burst, a deadline-bounded call, and a
// crash that the ring heals around. examples/quickstart runs the same
// runtime on the in-memory fabric; Build's graph simulator is only for the
// paper's 10000-peer experiments.
//
//	go run ./examples/tcpcluster
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	oscar "github.com/oscar-overlay/oscar"
)

func main() {
	ctx := context.Background()
	const size = 12
	var nodes []*oscar.Node

	fmt.Println("spawning", size, "nodes on 127.0.0.1…")
	for i := 0; i < size; i++ {
		n, err := oscar.StartNode(oscar.NodeConfig{
			Listen: "127.0.0.1:0",
			Key:    oscar.KeyFromFloat(float64(i)/size + 0.001),
			MaxIn:  8,
			MaxOut: 8,
			Seed:   int64(i),
		})
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			if err := n.Join(ctx, nodes[0].Addr()); err != nil {
				log.Fatalf("node %d join: %v", i, err)
			}
		}
		nodes = append(nodes, n)
		fmt.Printf("  node %2d @ %s key=%s\n", i, n.Addr(), n.Key())
	}

	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			n.Stabilize(ctx)
		}
	}
	links := 0
	for _, n := range nodes {
		if err := n.Rewire(ctx); err != nil {
			log.Fatal(err)
		}
		info, err := n.Info(ctx)
		if err != nil {
			log.Fatal(err)
		}
		links += info.OutLinks
	}
	fmt.Printf("overlay wired: %d long-range links\n", links)

	key := oscar.KeyFromFloat(0.77)
	put, err := nodes[2].Put(ctx, key, []byte("stored over TCP"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("put through node 2: owner %s, %d messages\n", put.Owner.Addr, put.Cost)
	got, err := nodes[9].Get(ctx, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get through node 9: %q (%d messages)\n", got.Value, got.Cost)

	// Every operation takes a context: a deadline bounds the whole
	// multi-hop call, not just one RPC.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	if _, err := nodes[4].Lookup(dctx, oscar.KeyFromFloat(0.25)); err != nil {
		log.Fatal(err)
	}
	cancel()
	fmt.Println("deadline-bounded lookup ok")

	// A concurrent burst: every worker multiplexes its RPCs over the same
	// pooled connections instead of dialing per call.
	const workers, opsPer = 16, 25
	fmt.Printf("\nconcurrent workload: %d workers x %d put+get…\n", workers, opsPer)
	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := nodes[w%len(nodes)]
			for j := 0; j < opsPer; j++ {
				k := oscar.KeyFromFloat(float64(w*opsPer+j) / (workers * opsPer))
				v := []byte(fmt.Sprintf("w%d-%d", w, j))
				if _, err := node.Put(ctx, k, v); err != nil {
					failed.Add(1)
					continue
				}
				res, err := nodes[(w+3)%len(nodes)].Get(ctx, k)
				if err != nil || !bytes.Equal(res.Value, v) {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := workers * opsPer * 2
	fmt.Printf("%d ops in %v (%.0f ops/s), %d failures\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), failed.Load())

	fmt.Println("\ncrashing node 5…")
	_ = nodes[5].Close()
	for round := 0; round < 4; round++ {
		for i, n := range nodes {
			if i != 5 {
				n.Stabilize(ctx)
			}
		}
	}
	res, err := nodes[1].Lookup(ctx, oscar.KeyFromFloat(0.99))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup after crash: owner key=%s in %d messages — ring healed\n", res.Owner.Key, res.Cost)

	for i, n := range nodes {
		if i != 5 {
			_ = n.Close()
		}
	}
	fmt.Println("cluster shut down")
}
