package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/oscar-overlay/oscar"
	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/routecache"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/transport"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// Stand-alone probes time the layers the transport wrapper cannot see
// inside, each by calling the layer's public functions directly, sized to
// the workload they run beside (its value size, per-node arc size and fsync
// policy). Each runs for probeTime, so a traced run stays inside the
// driver's per-run budget.
const probeTime = 150 * time.Millisecond

// calibrate times a fixed SHA-256 loop. It is taken before and after a run:
// two readings more than noisyDrift apart mean the host itself shifted, and
// the run's timings should not be trusted.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return msSince(t0)
}

const noisyDrift = 0.15

// timeLoop calls fn until probeTime has passed (at least 20 times) and
// returns each call's duration.
func timeLoop(fn func(i int)) []time.Duration {
	var ds []time.Duration
	start := time.Now()
	for i := 0; i < 20 || time.Since(start) < probeTime; i++ {
		t0 := time.Now()
		fn(i)
		ds = append(ds, time.Since(t0))
	}
	return ds
}

// timeLoopPar2 runs timeLoop on two goroutines at once and returns both
// sets of durations together.
func timeLoopPar2(fn func(i int)) []time.Duration {
	var par [2][]time.Duration
	var wg sync.WaitGroup
	for g := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par[g] = timeLoop(fn)
		}()
	}
	wg.Wait()
	return append(par[0], par[1]...)
}

// nsPerCall times n back-to-back calls of a function too fast to time one
// by one.
func nsPerCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probeTransport measures a bare round trip between two endpoints with a
// no-op handler: a put-shaped request of the workload's value size, alone
// and with two callers, a 512-item page response, the in-memory fabric, and
// the allocations one pooled TCP round trip costs (both ends, same process).
func probeTransport(sp *spec, out map[string]reading) error {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	defer srv.Close()
	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	defer cli.Close()
	page := make([]storage.Item, storage.PageMaxItems)
	for i := range page {
		page[i] = storage.Item{Key: keyspace.Key(i), Value: make([]byte, sp.valueSize)}
	}
	srv.Serve(func(req *transport.Request) *transport.Response {
		if req.Op == transport.OpScan {
			return &transport.Response{OK: true, Items: page}
		}
		return &transport.Response{OK: true, Acks: 1}
	})
	cli.Serve(func(*transport.Request) *transport.Response { return &transport.Response{OK: true} })
	put := &transport.Request{Op: transport.OpPut, Key: 42, Value: make([]byte, sp.valueSize)}
	var callErr error
	call := func(t transport.Transport, addr transport.Addr, req *transport.Request) func(int) {
		return func(int) {
			if _, err := t.CallCtx(context.Background(), addr, req); err != nil {
				callErr = err
			}
		}
	}
	echo := timeLoop(call(cli, srv.Addr(), put))
	out["transport.rtt_echo_us"] = reading{Value: p50(usOf(echo)), Unit: "us", Samples: len(echo)}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	const allocCalls = 500
	for i := 0; i < allocCalls; i++ {
		call(cli, srv.Addr(), put)(i)
	}
	runtime.ReadMemStats(&ms)
	out["transport.allocs_per_call"] = reading{Value: float64(ms.Mallocs-mallocs) / allocCalls, Unit: "count", Samples: allocCalls}
	out["transport.bytes_per_call"] = reading{Value: float64(ms.TotalAlloc-bytes) / allocCalls, Unit: "bytes", Samples: allocCalls}

	both := timeLoopPar2(func(int) { _, _ = cli.CallCtx(context.Background(), srv.Addr(), put) })
	out["transport.rtt_echo_par2_us"] = reading{Value: p50(usOf(both)), Unit: "us", Samples: len(both)}

	pages := timeLoop(call(cli, srv.Addr(), &transport.Request{Op: transport.OpScan}))
	out["transport.page_call_us"] = reading{Value: p50(usOf(pages)), Unit: "us", Samples: len(pages)}

	fabric := transport.NewFabric()
	a, b := fabric.Endpoint(), fabric.Endpoint()
	defer a.Close()
	defer b.Close()
	b.Serve(func(*transport.Request) *transport.Response { return &transport.Response{OK: true} })
	const memCalls = 20000
	out["transport.mem_call_ns"] = reading{Value: nsPerCall(memCalls, call(a, b.Addr(), put)), Unit: "ns", Samples: memCalls}
	if callErr != nil {
		return fmt.Errorf("transport probe: %w", callErr)
	}
	return nil
}

// probeRoutecache times a hit on a full cache of the default size.
func probeRoutecache(out map[string]reading) {
	const size = 128
	c := routecache.New[int](size, 2*time.Second)
	for i := 0; i < size; i++ {
		c.Put(keyspace.Key(i), i)
	}
	const gets = 200000
	out["routecache.get_ns"] = reading{Value: nsPerCall(gets, func(i int) { c.Get(keyspace.Key(i % size)) }), Unit: "ns", Samples: gets}
}

// probeStorage times the store at the arc size one node of the workload
// holds: replicas × keys / nodes items, digest enabled as on a live node.
func probeStorage(sp *spec, seed int64, out map[string]reading) {
	arc := max(sp.keys*sp.replicas/sp.nodes, storage.PageMaxItems)
	r := rng.Derive(seed, "storage-probe")
	keys := make([]keyspace.Key, arc)
	// Two collections each time: sync.Pool contents left by earlier probes
	// only go on the second.
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	var st storage.Store
	st.EnableDigest(antientropy.DefaultDepth)
	for i := range keys {
		keys[i] = oscar.GnutellaKeys().Sample(r)
		st.Put(keys[i], make([]byte, sp.valueSize))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out["storage.bytes_per_item"] = reading{Value: float64(ms.HeapAlloc-before) / float64(st.Len()), Unit: "bytes", Samples: st.Len()}

	val := make([]byte, sp.valueSize)
	ins := timeLoop(func(int) { st.Put(oscar.GnutellaKeys().Sample(r), val) })
	out["storage.put_insert_us"] = reading{Value: p50(usOf(ins)), Unit: "us", Samples: len(ins)}
	const fast = 100000
	out["storage.put_replace_us"] = reading{Value: nsPerCall(fast, func(i int) { st.Put(keys[i%arc], val) }) / 1e3, Unit: "us", Samples: fast}
	out["storage.get_ns"] = reading{Value: nsPerCall(fast, func(i int) { st.Get(keys[i%arc]) }), Unit: "ns", Samples: fast}
	var empty storage.Store
	pages := timeLoop(func(i int) {
		storage.ScanPageMerged(&st, &empty, keyspace.Range{Start: keys[i%arc], End: keys[i%arc] - 1}, storage.PageMaxItems, storage.PageMaxBytes)
	})
	out["storage.scan_page_us"] = reading{Value: p50(usOf(pages)), Unit: "us", Samples: len(pages)}
	digests := timeLoop(func(int) { st.Digest(keyspace.Range{Start: 1, End: 0}, antientropy.DefaultDepth) })
	out["antientropy.digest_us"] = reading{Value: p50(usOf(digests)), Unit: "us", Samples: len(digests)}
	runtime.KeepAlive(&st)
}

// probeWAL times Engine.Append under the workload's fsync policy with one
// and with two appenders. A memory-only workload has no WAL: both read 0.
func probeWAL(sp *spec, tmp string, out map[string]reading) error {
	out["wal.append_us"] = reading{Unit: "us"}
	out["wal.append_par2_us"] = reading{Unit: "us"}
	if sp.fsync == "" {
		return nil
	}
	policy, err := wal.ParsePolicy(sp.fsync)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	dir, err := os.MkdirTemp(tmp, "wal-probe-")
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer os.RemoveAll(dir)
	eng, _, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	rec := wal.Record{Store: wal.StorePrimary, Mut: storage.Mutation{Op: storage.MutPut, Key: 7, Value: make([]byte, sp.valueSize)}}
	var appendErr error
	appendOne := func(int) {
		if err := eng.Append(rec); err != nil {
			appendErr = err
		}
	}
	one := timeLoop(appendOne)
	out["wal.append_us"] = reading{Value: p50(usOf(one)), Unit: "us", Samples: len(one)}
	both := timeLoopPar2(func(int) { _ = eng.Append(rec) })
	out["wal.append_par2_us"] = reading{Value: p50(usOf(both)), Unit: "us", Samples: len(both)}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if appendErr != nil {
		return fmt.Errorf("wal probe: %w", appendErr)
	}
	return nil
}

// probeHops routes seeded uncached lookups from random nodes to random
// nodes' keys on the live ring, the way the simulator's measurement pass
// does, and runs the simulator at the same size and link budgets: the
// paper's search-cost figure, checked on the live runtime.
func probeHops(ctx context.Context, sp *spec, seed int64, r *ring, out map[string]reading) error {
	const lookups = 1000
	rnd := rng.Derive(seed, "hops-probe")
	total := 0
	for i := 0; i < lookups; i++ {
		from := r.nodes[rnd.Intn(len(r.nodes))]
		res, err := from.Lookup(ctx, r.keys[rnd.Intn(len(r.keys))])
		if err != nil {
			return fmt.Errorf("hops probe: %w", err)
		}
		total += res.Cost
	}
	live := float64(total) / lookups
	out["p2p.hops_per_lookup"] = reading{Value: live, Unit: "count", Samples: lookups}
	ov, err := oscar.Build(oscar.Config{Size: sp.nodes, Seed: seed, Keys: oscar.GnutellaKeys(), Degrees: sp.caps})
	if err != nil {
		return fmt.Errorf("hops probe: simulator: %w", err)
	}
	// One measurement pass routes one query per peer; repeat it to match
	// the live sample.
	var sim float64
	queries := 0
	for queries < lookups {
		m := ov.Measure()
		sim += m.AvgSearchCost * float64(m.Queries)
		queries += m.Queries
	}
	sim /= float64(queries)
	out["sim.search_cost_hops"] = reading{Value: sim, Unit: "count", Samples: queries}
	ratio := 0.0
	if sim > 0 {
		ratio = live / sim
	}
	out["p2p.hops_vs_sim_ratio"] = reading{Value: ratio, Unit: "ratio", Samples: lookups}
	return nil
}

// probeMaintenance times the background work a live ring runs beside
// traffic, once each on the loaded ring: a stabilisation round on every
// node, one anti-entropy pass of node 0 against its converged chain, and a
// compacting snapshot of node 0.
func probeMaintenance(ctx context.Context, sp *spec, r *ring, out map[string]reading) error {
	t0 := time.Now()
	r.stabilizeAll(ctx)
	out["p2p.stabilize_ms"] = reading{Value: msSince(t0), Unit: "ms", Samples: 1}
	out["p2p.antientropy_sync_ms"] = reading{Unit: "ms"}
	if sp.replicas > 1 {
		t0 = time.Now()
		if _, err := r.nodes[0].AntiEntropy(ctx); err != nil {
			return fmt.Errorf("anti-entropy probe: %w", err)
		}
		out["p2p.antientropy_sync_ms"] = reading{Value: msSince(t0), Unit: "ms", Samples: 1}
	}
	out["wal.snapshot_ms"] = reading{Unit: "ms"}
	if sp.fsync != "" {
		t0 = time.Now()
		if err := r.nodes[0].Snapshot(); err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		out["wal.snapshot_ms"] = reading{Value: msSince(t0), Unit: "ms", Samples: 1}
	}
	return nil
}

func msSince(t0 time.Time) float64 { return msOf(time.Since(t0)) }

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// crashCheck is what crashRecover found.
type crashCheck struct {
	recovery time.Duration
	frames   int
	// checked is how many writes the crashed node had acknowledged last;
	// lost is how many of them did not read back.
	checked, lost int
}

// crashRecover models a process crash of the last node (not a client's
// entry node): with the ring quiescent and the node still open, its data
// directory is copied as it stands, with no final snapshot and no clean
// marker; the node is closed, a new one is started on the copy, which must
// take the crash-recovery path, and it joins again. The clients then read
// back every write the crashed node had acknowledged. With fsync=always an
// acknowledged write is in the file already; with fsync=interval the copy
// waits out a few flush intervals first, after which the same holds. The
// operating system's cache is intact throughout: this is a process crash,
// not a power loss.
func crashRecover(ctx context.Context, sp *spec, seed int64, r *ring, clients []*client) (crashCheck, error) {
	var cc crashCheck
	idx := len(r.nodes) - 1
	victim := r.nodes[idx]
	addr := victim.Addr()
	copied := r.dirs[idx] + "-crash"
	if sp.fsync != "always" {
		time.Sleep(3 * wal.DefaultFsyncInterval)
	}
	if err := os.CopyFS(copied, os.DirFS(r.dirs[idx])); err != nil {
		return cc, fmt.Errorf("crash check: copy data dir: %w", err)
	}
	r.nodes[idx] = nil
	if err := victim.Close(); err != nil {
		return cc, fmt.Errorf("crash check: close: %w", err)
	}
	for round := 0; round < 20; round++ {
		r.stabilizeAll(ctx)
		if info, err := r.nodes[0].Info(ctx); err == nil && info.Peers == len(r.nodes)-1 {
			break
		}
	}
	r.stabilizeAll(ctx)
	t0 := time.Now()
	n, err := oscar.StartNode(sp.nodeConfig(idx, r.keys[idx], seed, copied, r.wrap))
	if err != nil {
		return cc, fmt.Errorf("crash check: restart: %w", err)
	}
	cc.recovery = time.Since(t0)
	r.nodes[idx], r.dirs[idx] = n, copied
	rec := n.Recovery()
	cc.frames = rec.ReplayedFrames
	if !rec.Enabled || rec.Clean {
		return cc, fmt.Errorf("crash check: restart did not take the crash-recovery path (%+v)", rec)
	}
	if err := n.Join(ctx, r.nodes[0].Addr()); err != nil {
		return cc, fmt.Errorf("crash check: rejoin: %w", err)
	}
	for round := 0; round < 3; round++ {
		r.stabilizeAll(ctx)
	}
	for _, c := range clients {
		for i, owner := range c.owner {
			if owner != addr || c.gone[i] {
				continue
			}
			cc.checked++
			failed := c.failed
			c.get(ctx, i)
			cc.lost += c.failed - failed
		}
	}
	return cc, nil
}
