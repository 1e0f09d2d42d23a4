// Command benchmark is the repository's one benchmark: it boots a real ring
// in this process, drives it through the public oscar.Node API with two
// closed-loop clients, checks every answer, and prints either the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced window and of
// stand-alone probes (--trace 1). Every layer is measured from outside, by
// timing calls into public functions and through a tracing transport
// wrapper; README.md in this directory is the metric and workload
// dictionary.
//
// Run it from the root of a checkout, through its launcher:
//
//	bash benchmark/run.sh --workload kv-lan --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/oscar-overlay/oscar/internal/faultnet"
)

const (
	// setupRounds is how many times an untraced run sets the ring up; it
	// reports the median and measures on the last ring.
	setupRounds = 3
	// warmup lets connections, caches (2 s TTL) and the heap reach their
	// steady state before anything is timed.
	warmup = 2 * time.Second
	// segments is how many equal parts a measured window is read in; a
	// metric is the median over them, so one stall moves one segment.
	segments = 5
	// untracedShare is the untraced stretch a traced run drives before and
	// again after the traced window, as a share of --seconds: traced over
	// untraced throughput is the overhead, and taking the untraced side from
	// both ends keeps a ring that slows as it fills from reading as overhead.
	untracedShare = 0.15
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; a test holds the two together.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"}, {"ops_s", "1/s"},
	{"read_p50_ms", "ms"}, {"read_p95_ms", "ms"},
	{"write_p50_ms", "ms"}, {"write_p95_ms", "ms"},
	{"heap_live_mb", "MB"},
}

var perLayerDefs = []metricDef{
	{"loadgen.calib_ms", "ms"}, {"loadgen.trace_overhead_ratio", "ratio"},
	{"client.read_p99_ms", "ms"}, {"client.write_p99_ms", "ms"}, {"client.scan_items_s", "1/s"},
	{"client.put_self_us", "us"}, {"client.get_self_us", "us"},
	{"p2p.msgs_per_put", "count"}, {"p2p.msgs_per_get", "count"},
	{"p2p.hops_per_lookup", "count"}, {"sim.search_cost_hops", "count"}, {"p2p.hops_vs_sim_ratio", "ratio"},
	{"p2p.handle_put_us", "us"}, {"p2p.handle_get_us", "us"}, {"p2p.handle_find_owner_us", "us"},
	{"p2p.handle_replicate_us", "us"}, {"p2p.handle_scan_us", "us"},
	{"p2p.handle_put_p99_us", "us"}, {"p2p.handle_get_p99_us", "us"},
	{"p2p.handle_busy_ratio", "ratio"}, {"p2p.replica_fanout_us", "us"}, {"p2p.failed_calls_ratio", "ratio"},
	{"p2p.stabilize_ms", "ms"}, {"p2p.antientropy_sync_ms", "ms"},
	{"transport.call_us", "us"}, {"transport.calls_per_op", "count"},
	{"transport.rtt_echo_us", "us"}, {"transport.rtt_echo_par2_us", "us"}, {"transport.page_call_us", "us"},
	{"transport.mem_call_ns", "ns"}, {"transport.allocs_per_call", "count"}, {"transport.bytes_per_call", "bytes"},
	{"routecache.route_hit_ratio", "ratio"}, {"routecache.hot_hit_ratio", "ratio"}, {"routecache.get_ns", "ns"},
	{"storage.put_insert_us", "us"}, {"storage.put_replace_us", "us"}, {"storage.get_ns", "ns"},
	{"storage.scan_page_us", "us"}, {"storage.bytes_per_item", "bytes"},
	{"wal.append_us", "us"}, {"wal.append_par2_us", "us"}, {"wal.disk_bytes_per_user_byte", "ratio"},
	{"wal.recovery_ms", "ms"}, {"wal.replayed_frames", "count"}, {"wal.snapshot_ms", "ms"},
	{"antientropy.digest_us", "us"}, {"faultnet.delay_ms_per_op", "ms"},
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// out, when set, is a file the run's full record is appended to as one
	// JSON line, for --compare.
	out string
	// warmup is driven before anything is timed.
	warmup time.Duration
	// spans is where a traced run dumps its spans.
	spans string
	// tmp is where node data directories go.
	tmp string
}

// environment is stamped on every record.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func readEnvironment() environment {
	env := environment{
		Commit: os.Getenv("OSCAR_BENCH_COMMIT"), Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Kernel: "unknown",
	}
	if env.Commit == "" {
		env.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// record is everything one run measured; --out appends it to a file.
type record struct {
	Env             environment        `json:"env"`
	Workload        string             `json:"workload"`
	Seed            int64              `json:"seed"`
	Seconds         int                `json:"seconds"`
	Trace           bool               `json:"trace"`
	WallS           float64            `json:"wall_s"`
	Attempted       int                `json:"attempted"`
	Failed          int                `json:"failed"`
	LostAckedWrites int                `json:"lost_acked_writes"`
	Correct         bool               `json:"correct"`
	CalibBeforeMs   float64            `json:"calib_before_ms"`
	CalibAfterMs    float64            `json:"calib_after_ms"`
	Noisy           bool               `json:"noisy"`
	Metrics         map[string]reading `json:"metrics"`
	Errors          []string           `json:"errors,omitempty"`
}

// run executes one workload in one mode.
func run(ctx context.Context, sp spec, opt options) (*record, error) {
	began := time.Now()
	rec := &record{
		Env: readEnvironment(), Workload: sp.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Metrics: map[string]reading{}, CalibBeforeMs: calibrate(),
	}
	tr := newTracer()
	measure := time.Duration(opt.seconds) * time.Second

	rounds := setupRounds
	if opt.trace {
		rounds = 1
	}
	var r *ring
	var clients []*client
	var setups []float64
	for i := 0; i < rounds; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("close ring: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, clients, err = setUp(ctx, &sp, opt.seed, tr, opt.tmp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	// Space per loaded data: read before any traffic, so that it does not
	// depend on how many operations the run then completes.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap := reading{Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MB", Samples: 1}
	if r.fnet != nil {
		r.fnet.SetDefault(faultnet.Faults{Latency: sp.linkDelay})
	}
	drive(ctx, clients, opt.warmup)

	var spans []span
	if opt.trace {
		var err error
		if spans, err = tracedWindow(ctx, &sp, opt, r, clients, tr, measure, rec); err != nil {
			return nil, err
		}
	} else {
		rec.Metrics["setup_s"] = ofSegments("s", setups, len(setups))
		rec.Metrics["heap_live_mb"] = heap
		endToEnd(&sp, drive(ctx, clients, measure), rec.Metrics)
	}
	if sp.fsync != "" {
		cc, err := crashRecover(ctx, &sp, opt.seed, r, clients)
		if err != nil {
			return nil, err
		}
		rec.LostAckedWrites = cc.lost
		fmt.Printf("# crash check (process crash, OS cache intact): %d acked writes read back, %d lost, recovery %.1f ms, %d frames replayed\n",
			cc.checked, cc.lost, msOf(cc.recovery), cc.frames)
		if opt.trace {
			rec.set("wal.recovery_ms", msOf(cc.recovery), 1)
			rec.set("wal.replayed_frames", float64(cc.frames), 1)
		}
	}
	if opt.trace {
		// The maintenance probes come after the crash copy: a stabilisation
		// round compacts the WAL into a snapshot.
		if err := probeMaintenance(ctx, &sp, r, rec.Metrics); err != nil {
			return nil, err
		}
		if err := probeTransport(&sp, rec.Metrics); err != nil {
			return nil, err
		}
		probeRoutecache(rec.Metrics)
		probeStorage(&sp, opt.seed, rec.Metrics)
		if err := probeWAL(&sp, opt.tmp, rec.Metrics); err != nil {
			return nil, err
		}
		if err := dumpSpans(opt.spans, spans); err != nil {
			return nil, err
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), opt.spans)
	}

	for _, c := range clients {
		rec.Attempted += c.attempted
		rec.Failed += c.failed
		rec.Errors = append(rec.Errors, c.errs...)
	}
	rec.Correct = rec.Failed == 0 && rec.LostAckedWrites == 0
	rec.CalibAfterMs = calibrate()
	lo, hi := min(rec.CalibBeforeMs, rec.CalibAfterMs), max(rec.CalibBeforeMs, rec.CalibAfterMs)
	rec.Noisy = hi > lo*(1+noisyDrift)
	rec.WallS = time.Since(began).Seconds()
	return rec, nil
}

// set fills in the value of a metric whose unit is already there.
func (rec *record) set(name string, value float64, samples int) {
	rd := rec.Metrics[name]
	rd.Value, rd.Samples = value, samples
	rec.Metrics[name] = rd
}

// endToEnd reads the end-to-end metrics off an untraced window: each the
// median over the window's segments.
func endToEnd(sp *spec, w *window, out map[string]reading) {
	seg := w.dur / segments
	done := make([]float64, segments)
	total := 0
	for _, l := range w.lat {
		total += len(l)
		for _, s := range l {
			done[segmentOf(s.at, w.dur, segments)]++
		}
	}
	for i := range done {
		done[i] /= seg.Seconds()
	}
	out["ops_s"] = ofSegments("1/s", done, total)
	for _, m := range []struct {
		prefix string
		kind   opKind
	}{{"read", sp.readKind()}, {"write", kPut}} {
		p50s, p95s := make([]float64, segments), make([]float64, segments)
		for i, s := range bySegment(w.lat[m.kind], w.dur, segments) {
			p50s[i], p95s[i] = percentile(s, 0.50), percentile(s, 0.95)
		}
		all := bySegment(w.lat[m.kind], w.dur, 1)[0]
		out[m.prefix+"_p50_ms"] = ofSegments("ms", p50s, len(all))
		// The tail is read off the whole window, where it has the most
		// samples beyond it; in a closed loop one stall costs at most one
		// sample a client, so it cannot carry the tail alone.
		out[m.prefix+"_p95_ms"] = reading{Value: percentile(all, 0.95), Unit: "ms", Samples: len(all), Spread: spread(p95s)}
		if !supported(len(all), 0.95) {
			fmt.Fprintf(os.Stderr, "warning: %s_p95_ms rests on %d samples, fewer than ten beyond it\n", m.prefix, len(all))
		}
	}
}

// tracedWindow drives an untraced stretch and then a traced window on the
// same ring, and fills in the per-layer metrics that come from the spans,
// from the clients' own counts and from the nodes' counters. It returns the
// spans.
func tracedWindow(ctx context.Context, sp *spec, opt options, r *ring, clients []*client, tr *tracer, measure time.Duration, rec *record) ([]span, error) {
	for _, d := range perLayerDefs {
		rec.Metrics[d.name] = reading{Unit: d.unit}
	}
	set := rec.set
	set("loadgen.calib_ms", rec.CalibBeforeMs, 1)

	untraced := time.Duration(float64(measure) * untracedShare)
	before := drive(ctx, clients, untraced)
	caches, err := cacheCounters(ctx, clients)
	if err != nil {
		return nil, err
	}
	var delayed time.Duration
	if r.fnet != nil {
		delayed = r.fnet.Stats().Delayed
	}
	tr.on.Store(true)
	w := drive(ctx, clients, measure)
	tr.on.Store(false)
	after := drive(ctx, clients, untraced)
	ops := w.ops()
	set("loadgen.trace_overhead_ratio", (float64(ops)/w.dur.Seconds())/(float64(before.ops()+after.ops())/(2*untraced.Seconds())), ops)
	set("client.scan_items_s", float64(w.items)/w.dur.Seconds(), len(w.lat[kScan]))
	readKind := sp.readKind()
	for name, kind := range map[string]opKind{"client.read_p99_ms": readKind, "client.write_p99_ms": kPut} {
		all := bySegment(w.lat[kind], w.dur, 1)[0]
		set(name, percentile(all, 0.99), len(all))
	}
	if n := len(w.lat[kPut]); n > 0 {
		set("p2p.msgs_per_put", float64(w.cost[kPut])/float64(n), n)
	}
	if n := len(w.lat[kGet]); n > 0 {
		set("p2p.msgs_per_get", float64(w.cost[kGet])/float64(n), n)
	}
	if r.fnet != nil {
		set("faultnet.delay_ms_per_op", msOf(r.fnet.Stats().Delayed-delayed)/float64(ops), ops)
	}
	hits, err := cacheCounters(ctx, clients)
	if err != nil {
		return nil, err
	}
	ratio := func(hits, misses uint64) (float64, int) {
		if hits+misses == 0 {
			return 0, 0
		}
		return float64(hits) / float64(hits+misses), int(hits + misses)
	}
	v, n := ratio(hits.routeHits-caches.routeHits, hits.routeMisses-caches.routeMisses)
	set("routecache.route_hit_ratio", v, n)
	v, n = ratio(hits.hotHits-caches.hotHits, hits.hotMisses-caches.hotMisses)
	set("routecache.hot_hit_ratio", v, n)

	spans := tr.all()
	st := analyze(spans, w.lo, w.hi)
	set("client.put_self_us", p50(usOf(st.self["put"])), len(st.self["put"]))
	set("client.get_self_us", p50(usOf(st.self["get"])), len(st.self["get"]))
	for op, name := range map[string]string{
		"put": "p2p.handle_put_us", "get": "p2p.handle_get_us", "find_owner": "p2p.handle_find_owner_us",
		"replicate": "p2p.handle_replicate_us", "scan": "p2p.handle_scan_us",
	} {
		set(name, p50(usOf(st.handles[op])), len(st.handles[op]))
	}
	for op, name := range map[string]string{"put": "p2p.handle_put_p99_us", "get": "p2p.handle_get_p99_us"} {
		set(name, percentile(sortedCopy(usOf(st.handles[op])), 0.99), len(st.handles[op]))
	}
	set("p2p.handle_busy_ratio", float64(st.busiest)/float64(w.hi-w.lo), 1)
	set("p2p.replica_fanout_us", p50(usOf(st.fanout)), len(st.fanout))
	if st.fabricCalls > 0 {
		set("p2p.failed_calls_ratio", float64(st.failedCalls)/float64(st.fabricCalls), st.fabricCalls)
	}
	set("transport.calls_per_op", float64(st.opCalls)/float64(ops), ops)
	// A call's time in the transport is its span minus the handler it ran:
	// no id crosses the wire, so the two are paired per op, by their medians.
	var weighted float64
	pairs := 0
	for op, calls := range st.calls[layerTransport] {
		if handles := st.handles[op]; len(handles) > 0 {
			weighted += float64(len(calls)) * (p50(usOf(calls)) - p50(usOf(handles)))
			pairs += len(calls)
		}
	}
	if pairs > 0 {
		set("transport.call_us", weighted/float64(pairs), pairs)
	}

	if r.fnet != nil {
		r.fnet.SetDefault(faultnet.Faults{})
	}
	if err := probeHops(ctx, sp, opt.seed, r, rec.Metrics); err != nil {
		return nil, err
	}
	if sp.fsync != "" {
		var disk int64
		for _, dir := range r.dirs {
			b, err := dirBytes(dir)
			if err != nil {
				return nil, fmt.Errorf("data dir size: %w", err)
			}
			disk += b
		}
		acked := 0
		for _, c := range clients {
			acked += c.ackedBytes
		}
		set("wal.disk_bytes_per_user_byte", float64(disk)/float64(acked), acked)
	}
	return spans, nil
}

// cacheTotals sums the cache counters of the clients' entry nodes.
type cacheTotals struct{ routeHits, routeMisses, hotHits, hotMisses uint64 }

func cacheCounters(ctx context.Context, clients []*client) (cacheTotals, error) {
	var t cacheTotals
	for _, c := range clients {
		info, err := c.node.Info(ctx)
		if err != nil {
			return t, fmt.Errorf("cache counters: %w", err)
		}
		t.routeHits += info.RouteCacheHits
		t.routeMisses += info.RouteCacheMisses
		t.hotHits += info.HotKeyCacheHits
		t.hotMisses += info.HotKeyCacheMisses
	}
	return t, nil
}

// report prints every metric by name with unit, sample count and spread,
// and then, as the last line, the result object the driver reads.
func report(rec *record, defs []metricDef) error {
	fmt.Printf("# %s seed=%d trace=%v seconds=%d commit=%s %s %q nproc=%d gomaxprocs=%d kernel=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.Env.Commit, rec.Env.Go, rec.Env.CPU, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.Kernel)
	fmt.Printf("# wall %.1f s, %d ops attempted, %d failed, lost_acked_writes %d, calib %.1f ms before / %.1f ms after, noisy=%v\n",
		rec.WallS, rec.Attempted, rec.Failed, rec.LostAckedWrites, rec.CalibBeforeMs, rec.CalibAfterMs, rec.Noisy)
	for _, e := range rec.Errors {
		fmt.Printf("# error: %s\n", e)
	}
	fmt.Printf("%-32s %14s %-6s %9s %7s\n", "metric", "value", "unit", "samples", "spread")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, d := range defs {
		rd, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-32s %14.4f %-6s %9d %6.1f%%\n", d.name, rd.Value, rd.Unit, rd.Samples, 100*rd.Spread)
		result.Metrics[d.name] = value{rd.Value, rd.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendRecord appends rec to the file at path as one JSON line.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAwake is run with the CPUs kept awake for as long as it lasts.
func runAwake(sp spec, opt options) (*record, error) {
	stop, err := keepAwake()
	if err != nil {
		return nil, err
	}
	defer stop()
	return run(context.Background(), sp, opt)
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin()
		return
	}
	var opt options
	var trace int
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run: kv-lan, put-wal, read-zipf-wan, scan-insert or, by hand, put-fsync")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics; 1 traces and prints the per-layer metrics")
	flag.StringVar(&opt.out, "out", "", "append the run's full record to this file as one JSON line")
	flag.StringVar(&opt.spans, "spans", "", "where a traced run dumps its spans (default .bench_build/spans-<workload>.jsonl)")
	flag.BoolVar(&compare, "compare", false, "compare two --out files given as arguments, by the bounds in BENCHMARK.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: --compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	sp, ok := workloadByName(opt.workload)
	if !ok || opt.seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or bad arguments\n", opt.workload)
		flag.Usage()
		os.Exit(2)
	}
	opt.trace = trace != 0
	opt.warmup = warmup
	opt.tmp = filepath.Join(".bench_build", "data")
	if opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans-"+sp.name+".jsonl")
	}
	err := os.MkdirAll(opt.tmp, 0o755)
	var rec *record
	if err == nil {
		rec, err = runAwake(sp, opt)
	}
	if err == nil {
		defs := endToEndDefs
		if opt.trace {
			defs = perLayerDefs
		}
		err = report(rec, defs)
	}
	if err == nil && opt.out != "" {
		err = appendRecord(opt.out, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}
