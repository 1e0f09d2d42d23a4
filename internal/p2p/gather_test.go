package p2p

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// gatherValue is the value stored under k: its length and bytes follow
// from the key, so any item a scan returns can be checked on its own.
func gatherValue(k keyspace.Key) []byte {
	v := make([]byte, 64+int(k%64))
	for i := range v {
		v[i] = byte(uint64(k)>>(i%8*8)) + byte(i/8)
	}
	return v
}

// TestScanGatherUnderInserts scans 4096-item ranges on a 3-node TCP ring
// with two replicas, from two scanners, while two writers insert new keys
// into the same arcs, so owners gather blocks under their lock while
// other pages are still being encoded outside it. Every page must be in key order, hold every
// preloaded key between its first and last, and carry each key's exact
// value; under -race the gather is checked against the encode.
func TestScanGatherUnderInserts(t *testing.T) {
	const size, preload, want = 3, 6000, 4096
	var nodes []*Node
	for i := 0; i < size; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := mustNode(t, ep, Config{
			Key: keyspace.FromFloat(float64(i) / size), MaxIn: 8, MaxOut: 8, Seed: int64(i),
			Replicas: 2,
		})
		t.Cleanup(func() { _ = n.Close() })
		if i > 0 {
			if err := n.Join(bg, nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			n.Stabilize(bg)
		}
	}

	// Keys in [0.1, 0.6): node 1 owns those up to 1/3, node 2 the rest,
	// so a scan from node 0 asks two remote owners.
	lo, span := keyspace.FromFloat(0.1), uint64(keyspace.FromFloat(0.5))
	end := keyspace.FromFloat(0.6)
	rnd := rand.New(rand.NewSource(1))
	preloaded := map[keyspace.Key]bool{}
	keys := make([]keyspace.Key, 0, preload)
	for len(keys) < preload {
		k := lo + keyspace.Key(rnd.Uint64()%span)
		if !preloaded[k] {
			preloaded[k] = true
			keys = append(keys, k)
		}
	}
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys[w*preload/2 : (w+1)*preload/2] {
				if _, err := nodes[1+w].Put(bg, k, gatherValue(k)); err != nil {
					t.Errorf("preload put %v: %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	slices.Sort(keys)

	var inserted sync.Map
	var stop atomic.Bool
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(10 + w)))
			for !stop.Load() {
				// A fifth of the arc, where every scan starts: its blocks
				// take enough inserts to be gathered again and again.
				k := lo + keyspace.Key(r.Uint64()%(span/5))
				if preloaded[k] {
					continue
				}
				inserted.Store(k, true)
				if _, err := nodes[1+w].Put(bg, k, gatherValue(k)); err != nil {
					t.Errorf("insert %v: %v", k, err)
					return
				}
			}
		}()
	}

	// check fails the test unless a page of a scan from start is in key
	// order, holds only put keys with their exact values, and misses no
	// preloaded key between its first and last.
	check := func(start keyspace.Key, items []storage.Item) {
		for i, it := range items {
			if i > 0 && it.Key <= items[i-1].Key {
				t.Errorf("scan from %v: item %d key %v after %v", start, i, it.Key, items[i-1].Key)
				return
			}
			if _, ok := inserted.Load(it.Key); !ok && !preloaded[it.Key] {
				t.Errorf("scan from %v: key %v was never put", start, it.Key)
				return
			}
			if !bytes.Equal(it.Value, gatherValue(it.Key)) {
				t.Errorf("scan from %v: key %v carries a wrong value", start, it.Key)
				return
			}
		}
		first, last := items[0].Key, items[len(items)-1].Key
		from, _ := slices.BinarySearch(keys, first)
		i := 0
		for _, k := range keys[from:] {
			if k > last {
				break
			}
			for i < len(items) && items[i].Key < k {
				i++
			}
			if i == len(items) || items[i].Key != k {
				t.Errorf("scan from %v: preloaded key %v missing between %v and %v", start, k, first, last)
				return
			}
		}
	}

	// Two scanners, so one owner's gather can meet another scan's page
	// that is still being encoded.
	var scans atomic.Int64
	var sg sync.WaitGroup
	deadline := time.Now().Add(time.Second)
	for sc := range 2 {
		sg.Add(1)
		go func() {
			defer sg.Done()
			r := rand.New(rand.NewSource(int64(20 + sc)))
			for time.Now().Before(deadline) && !t.Failed() {
				start := lo + keyspace.Key(r.Uint64()%(span/4))
				got, err := scanAll(bg, nodes[0], start, end, want)
				if err != nil {
					t.Errorf("scan from %v: %v", start, err)
					return
				}
				if len(got.Items) != want {
					t.Errorf("scan from %v returned %d items, want %d", start, len(got.Items), want)
					return
				}
				check(start, got.Items)
				scans.Add(1)
			}
		}()
	}
	sg.Wait()
	stop.Store(true)
	wg.Wait()
	if scans.Load() < 2 {
		t.Errorf("only %d scans ran", scans.Load())
	}
	t.Logf("%d scans of %d items", scans.Load(), want)
}
