package p2p

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/core"
	"github.com/oscar-overlay/oscar/internal/faultnet"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// tcpRing boots size nodes on loopback TCP at keys i/size with
// replication factor r, stabilised, with no maintenance running: nothing
// but the test sends.
func tcpRing(t *testing.T, size, r int) []*Node {
	t.Helper()
	var nodes []*Node
	for i := 0; i < size; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := mustNode(t, ep, Config{
			Key: keyspace.FromFloat(float64(i) / float64(size)), MaxIn: 8, MaxOut: 8, Seed: int64(i),
			Replicas: r,
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
	return nodes
}

// goroutinesBesideWorkers is runtime.NumGoroutine less the TCP endpoints'
// resident handler workers: the resident pools' goroutines less the
// nodes' live legs, which run on pools of the same kind. A worker parks
// only after its answer is sent, so now and then a request that answer
// provoked finds none parked and starts one more — TestWorkersStayResident
// allows one per server, and a put reaches two or three servers.
func goroutinesBesideWorkers(nodes []*Node) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	workers := strings.Count(string(buf), "resident.(*Pool[...]).loop(")
	for _, n := range nodes {
		workers -= int(n.legs.Stats().Live)
	}
	return runtime.NumGoroutine() - workers
}

// TestFanoutLegsResident, the twin of TestWorkersStayResident: a put runs
// its last replica push on the caller's goroutine and hands the others to
// resident legs. At r=2 the one push runs on the caller, so 1,000
// sequential puts hand off nothing and start no leg; at r=3 they hand off
// one push each and start at most two. Either way the goroutines besides
// the TCP servers' workers grow by at most one.
func TestFanoutLegsResident(t *testing.T) {
	for _, tc := range []struct{ r, maxLegs int }{{2, 0}, {3, 2}} {
		t.Run(fmt.Sprintf("r=%d", tc.r), func(t *testing.T) {
			nodes := tcpRing(t, 4, tc.r)
			writer := nodes[1] // key 0.3 is nodes[2]'s; its chain is nodes[3] (and nodes[0])
			put := func(i int) {
				t.Helper()
				res, err := writer.PutW(bg, keyspace.FromFloat(0.3)+keyspace.Key(i), []byte("v"), tc.r)
				if err != nil || res.Acks != tc.r {
					t.Fatalf("put %d: %d acks, %v", i, res.Acks, err)
				}
			}
			put(0)
			before := goroutinesBesideWorkers(nodes)
			legs := writer.legs.Stats()
			for i := 1; i <= 1000; i++ {
				put(i)
			}
			if got := writer.legs.Stats().Handed - legs.Handed; got != int64(1000*(tc.r-2)) {
				t.Errorf("1000 puts at r=%d handed %d pushes to legs, want %d: all but the last run on the caller", tc.r, got, 1000*(tc.r-2))
			}
			if got := writer.legs.Stats().Started - legs.Started; got > int64(tc.maxLegs) {
				t.Errorf("1000 sequential puts at r=%d started %d leg goroutines, want at most %d", tc.r, got, tc.maxLegs)
			}
			if grew := goroutinesBesideWorkers(nodes) - before; grew > 1 {
				t.Errorf("goroutines grew by %d over 1000 sequential puts", grew)
			}
		})
	}
}

// TestFanoutLegsRetiredOnClose: Close leaves no leg goroutine behind —
// neither the parked ones nor one busy with a push when Close is called —
// and a fan-out after Close still runs every leg, on the caller.
func TestFanoutLegsRetiredOnClose(t *testing.T) {
	nodes := tcpRing(t, 4, 3)
	writer := nodes[1]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _ = writer.Put(bg, keyspace.FromFloat(0.3)+keyspace.Key(w*100+i), []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	if writer.legs.Stats().Started == 0 {
		t.Fatal("no leg was started: the test proves nothing")
	}
	// Two peers that hold their calls: one leg is busy on a resident
	// goroutine, the other on the caller, when Close runs.
	entered, release := make(chan struct{}, 2), make(chan struct{})
	defer close(release)
	var held []transport.Addr
	for i := 0; i < 2; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		ep.Serve(func(*transport.Request) *transport.Response {
			entered <- struct{}{}
			<-release
			return &transport.Response{OK: true}
		})
		held = append(held, ep.Addr())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		writer.fanoutRetry(bg, held, &transport.Request{Op: transport.OpPing})
	}()
	<-entered
	<-entered
	_ = writer.Close()
	if left := writer.legs.Stats().Live; left != 0 {
		t.Errorf("%d leg goroutines outlived Close", left)
	}
	<-done
	addrs := []transport.Addr{nodes[2].Self().Addr, nodes[3].Self().Addr, nodes[0].Self().Addr}
	results, sends := writer.fanoutRetry(bg, addrs, &transport.Request{Op: transport.OpPing})
	for i, r := range results {
		if r.Addr != addrs[i] || r.Err == nil {
			t.Errorf("leg %d after Close = %+v, want a failed call to %s", i, r, addrs[i])
		}
	}
	if live := writer.legs.Stats().Live; sends != len(addrs) || live != 0 {
		t.Errorf("a fan-out after Close sent %d and left %d legs, want %d and 0", sends, live, len(addrs))
	}
}

// TestFanoutLegsConcurrentWrites: 16 goroutines putting and deleting
// through one node share its legs; every write meets its concern and
// every key ends as its last write left it. Run it under -race.
func TestFanoutLegsConcurrentWrites(t *testing.T) {
	nodes := tcpRing(t, 4, 3)
	const workers, ops = 16, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := nodes[w%len(nodes)]
			for i := 0; i < ops; i++ {
				k := keyspace.FromFloat(float64(w)/workers) + keyspace.Key(i)
				if _, err := from.PutW(bg, k, []byte(fmt.Sprint(w, i)), 3); err != nil {
					errs <- fmt.Errorf("worker %d put %d: %w", w, i, err)
					return
				}
				if i%2 == 1 {
					if _, err := from.DeleteW(bg, k, 3); err != nil {
						errs <- fmt.Errorf("worker %d delete %d: %w", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < ops; i++ {
			k := keyspace.FromFloat(float64(w)/workers) + keyspace.Key(i)
			got, err := nodes[0].Get(bg, k)
			if err != nil {
				t.Fatalf("get worker %d key %d: %v", w, i, err)
			}
			if want := []byte(fmt.Sprint(w, i)); i%2 == 0 && (!got.Found || !bytes.Equal(got.Value, want)) || i%2 == 1 && got.Found {
				t.Errorf("worker %d key %d reads %q (found %v)", w, i, got.Value, got.Found)
			}
		}
	}
}

// TestFanoutLegsCancelled: a fan-out whose context is cancelled while two
// of its three legs wait on their peers returns with every slot filled —
// the waiting legs' cancellation, the third leg's answer or cancellation,
// whichever came first — and the three sends it made.
func TestFanoutLegsCancelled(t *testing.T) {
	nodes := tcpRing(t, 1, 1)
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	var addrs []transport.Addr
	for i := 0; i < 3; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		blocks := i > 0
		ep.Serve(func(*transport.Request) *transport.Response {
			if blocks {
				entered <- struct{}{}
				<-release
			}
			return &transport.Response{OK: true}
		})
		addrs = append(addrs, ep.Addr())
	}
	defer close(release)
	ctx, cancel := context.WithCancel(bg)
	go func() {
		<-entered
		<-entered
		cancel()
	}()
	results, sends := nodes[0].fanoutRetry(ctx, addrs, &transport.Request{Op: transport.OpPing})
	if len(results) != len(addrs) || sends != len(addrs) {
		t.Fatalf("%d results and %d sends, want %d of each", len(results), sends, len(addrs))
	}
	for i, r := range results {
		if r.Addr != addrs[i] {
			t.Errorf("slot %d holds %q, want %q", i, r.Addr, addrs[i])
		}
		if i == 0 && r.OK() {
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("slot %d = %+v, %v", i, r.Resp, r.Err)
		}
	}
}

// TestPickCandidateSeedDeterministic: with the node's random stream reset
// to one seed, core.Discover finds the same borders and core.Pick then
// picks the same candidates, in the same order and with the same loads,
// and sends the same messages however its two parallel draws interleave
// over the view and border peers of that discovery — here shuffled by a
// differently seeded jitter on every call.
func TestPickCandidateSeedDeterministic(t *testing.T) {
	ctx, cancel := context.WithTimeout(bg, 60*time.Second)
	defer cancel()
	c, err := NewCluster(ctx, ClusterConfig{Size: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]
	base := n.tr
	w := wiring{n}
	var first []core.Candidate[transport.PeerRef]
	var firstBorders []keyspace.Key
	var firstMsgs int
	for trial := 0; trial < 8; trial++ {
		fnet := faultnet.New(int64(100 + trial))
		fnet.SetDefault(faultnet.Faults{Jitter: 300 * time.Microsecond})
		n.tr = fnet.Wrap(base) // nothing else runs on the node: no maintenance
		n.rnd = &lockedRand{r: rand.New(rand.NewSource(42))}
		v := core.NewView(w)
		parts, starts, _, err := core.Discover(ctx, w, v, core.DefaultConfig().Samples, n.rnd)
		if err != nil || parts.Count() < 2 {
			t.Fatalf("%d partitions (%v): the test needs at least two", parts.Count(), err)
		}
		got, msgs := core.Pick(ctx, w, parts, core.WalkDraw(v, parts, starts), nil, true, n.rnd)
		if trial == 0 {
			first, firstBorders, firstMsgs = got, parts.Borders, msgs
			continue
		}
		if !slices.Equal(got, first) || msgs != firstMsgs || !slices.Equal(parts.Borders, firstBorders) {
			t.Fatalf("trial %d picked %v with %d messages, trial 0 %v with %d: one seed, two outcomes", trial, got, msgs, first, firstMsgs)
		}
	}
	n.tr = base
}
