// Command oscar-soak drives a seeded fault-and-churn soak against a live
// overlay and asserts, at teardown, that no write the cluster acknowledged
// at the requested write concern was lost.
//
// In the default -mode mem the harness boots an in-process cluster
// (StartCluster on the in-memory fabric) with an internal/faultnet fault
// model wrapped under every node, then runs two things concurrently:
//
//   - a load generator: -workers workers drawing keys from a seeded Zipf
//     distribution over a fixed keyspace and issuing a mixed put/get/
//     delete/scan stream at -rate ops/sec, keeping a client-side ledger of
//     every write the cluster acknowledged (and of every indeterminate
//     write — shed, timed out, or under-replicated — whose fate is
//     legitimately unknown);
//
//   - a fault plan: baseline loss+jitter with one deliberately slow node,
//     a hot-key crowd (every worker narrows to the head of its stripe, so
//     the route cache — on by default — carries a flash of popularity
//     under a concurrent write mix), a flash crowd of joiners,
//     a correlated crash of two key-adjacent arc owners, a full partition
//     of one node (which dies for good at heal time — a cut-off node is
//     declared failed and replaced, never readmitted with stale state), a
//     heal plus rolling restarts that recover from the write-ahead log,
//     and a drain.
//
// When the plan completes the load stops, and the harness polls the
// cluster until every tracked key reads back a ledger-allowed value:
// the last acknowledged write (or its acknowledged deletion), or — for
// keys with indeterminate writes — one of the candidate values. The time
// to the first fully clean sweep is reported as convergence_ms. A key
// that still reads back a value the ledger never allowed (or reads back
// nothing where an acknowledged write was never deleted) after
// -converge-timeout is a violation: the run prints the evidence, still
// writes its report, and exits 1.
//
// The report lands in -o (default BENCH_soak.json): a JSON list of one
// record with the run's name, the environment header the benchmark
// stamps on its records (commit, Go, CPU, nproc, GOMAXPROCS, kernel), op
// count, mean ns per op and its metrics.
//
// Determinism: the fault schedule is fully determined by -seed (faultnet
// decides per-link, per-call), and the workers' key and op streams are
// seeded from the same root, so a failing soak replays with the same
// faults in the same order. Goroutine interleaving still varies — the
// invariant must hold under every interleaving, which is the point.
//
// -mode tcp turns the harness into a pure load+ledger client for an
// external ring (e.g. the docker-compose fleet): it starts one TCP node,
// joins through -join, runs the same workload and teardown verification,
// and writes the same report. Fault injection then lives in the ring
// nodes themselves (oscar-node -fault-* flags), not in the client.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	oscar "github.com/oscar-overlay/oscar"
	"github.com/oscar-overlay/oscar/internal/faultnet"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// benchResult is the soak report's one record.
type benchResult struct {
	Name       string             `json:"name"`
	Env        environment        `json:"env"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// environment is the header the benchmark stamps on its records, under
// the same names, so a soak report says what it ran on. The commit comes
// from OSCAR_BENCH_COMMIT (`make soak` sets it), as in the benchmark.
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

type soakConfig struct {
	mode            string
	seed            int64
	nodes           int
	duration        time.Duration
	rate            float64
	workers         int
	keys            int
	zipfS           float64
	replicas        int
	writeConcern    int
	convergeTimeout time.Duration
	dataDir         string
	out             string
	listen          string
	join            string
}

// opTimeout bounds every single client operation: during a partition or a
// crash window an op must fail fast and feed the ledger, not stall a
// worker for the whole phase.
const opTimeout = 3 * time.Second

// scanSpan is the arc width of one scan op: 1/64 of the circle.
const scanSpan = oscar.Key(1) << 58

// baseFaults is the steady-state weather every phase after the clean boot
// runs under: a lossy, jittery fabric, never a perfect one.
var baseFaults = faultnet.Faults{
	Drop:    0.02,
	Latency: 500 * time.Microsecond,
	Jitter:  4 * time.Millisecond,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oscar-soak: ")

	var cfg soakConfig
	flag.StringVar(&cfg.mode, "mode", "mem", "mem (in-process cluster + fault plan) or tcp (load client for an external ring)")
	flag.Int64Var(&cfg.seed, "seed", 1, "root seed: fixes the fault schedule and the workload streams")
	flag.IntVar(&cfg.nodes, "nodes", 12, "cluster size before churn (mem mode; min 10)")
	flag.DurationVar(&cfg.duration, "duration", 25*time.Second, "load duration; the fault plan's phases split it")
	flag.Float64Var(&cfg.rate, "rate", 300, "target ops/sec across all workers")
	flag.IntVar(&cfg.workers, "workers", 8, "concurrent load workers (each owns a disjoint key stripe)")
	flag.IntVar(&cfg.keys, "keys", 480, "keyspace size (split evenly across workers)")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.2, "Zipf skew of the key popularity (> 1)")
	flag.IntVar(&cfg.replicas, "replicas", 3, "replication factor r (mem mode)")
	flag.IntVar(&cfg.writeConcern, "write-concern", 3, "acks a write must collect to count as acknowledged (mem mode)")
	flag.DurationVar(&cfg.convergeTimeout, "converge-timeout", 60*time.Second, "how long teardown waits for every tracked key to read back a ledger-allowed value")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "data directory for the cluster WALs (mem mode; empty = a temp dir, removed on exit)")
	flag.StringVar(&cfg.out, "o", "BENCH_soak.json", "report file (benchjson schema)")
	flag.StringVar(&cfg.listen, "listen", "0.0.0.0:0", "listen address of the load client's node (tcp mode)")
	flag.StringVar(&cfg.join, "join", "", "address of any ring member to join through (tcp mode, required)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch cfg.mode {
	case "mem":
		err = runMem(ctx, cfg)
	case "tcp":
		err = runTCP(ctx, cfg)
	default:
		err = fmt.Errorf("unknown -mode %q (want mem or tcp)", cfg.mode)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Ledger
//
// Every worker owns a disjoint stripe of the keyspace (key index i belongs
// to worker i%workers), so no two goroutines ever write the same key and
// each worker's ledger needs no locks. A key's entry distinguishes what
// the cluster acknowledged — which the final state MUST honour — from
// indeterminate writes (shed, timed out, under-replicated) that may or
// may not have landed, any of which the final state MAY show.

type keyState struct {
	ackedKnown bool            // some write concern-acked op happened
	ackedDel   bool            // ...and the last one was a delete
	acked      string          // ...or this value, when !ackedDel
	cands      map[string]bool // indeterminate put values since the last ack
	candDel    bool            // an indeterminate delete since the last ack
}

// allows reports whether an observed read is consistent with the ledger.
func (s *keyState) allows(val string, absent bool) bool {
	if absent {
		// Absence is fine unless an acknowledged value stands with no
		// possibly-applied delete after it.
		return !s.ackedKnown || s.ackedDel || s.candDel
	}
	if s.ackedKnown && !s.ackedDel && val == s.acked {
		return true
	}
	return s.cands[val]
}

// determinate reports that the ledger knows the key's exact final state —
// a violation on such a key is a lost acknowledged write, not an
// ambiguity.
func (s *keyState) determinate() bool {
	return s.ackedKnown && len(s.cands) == 0 && !s.candDel
}

func (s *keyState) indeterminate() bool { return len(s.cands) > 0 || s.candDel }

func (s *keyState) ackPut(val string) {
	s.ackedKnown, s.ackedDel, s.acked = true, false, val
	s.cands, s.candDel = nil, false
}

func (s *keyState) ackDelete() {
	s.ackedKnown, s.ackedDel, s.acked = true, true, ""
	s.cands, s.candDel = nil, false
}

func (s *keyState) candPut(val string) {
	if s.cands == nil {
		s.cands = make(map[string]bool)
	}
	s.cands[val] = true
}

// ---------------------------------------------------------------------------
// Workers

type workerStats struct {
	ops, puts, gets, dels, scans      int64
	ackedWrites, shortfalls           int64
	transients, unexpected, anomalies int64
	scanItems                         int64
	hotOps                            int64
	latencies                         []int64 // ns, one per completed op
}

type worker struct {
	id      int
	total   int // keyspace size across all workers
	stride  int // number of workers
	client  oscar.Client
	rnd     *rand.Rand
	zipf    *rand.Zipf
	hotZipf *rand.Zipf   // near-flat draw over the head of the stripe
	hot     *atomic.Bool // hot-key phase flag, shared with the plan
	seq     int64
	keys    map[int]*keyState
	stats   workerStats
}

func newWorker(id int, cfg soakConfig, client oscar.Client, hot *atomic.Bool) *worker {
	r := rng.DeriveN(cfg.seed, "soak-worker", id)
	per := cfg.keys / cfg.workers
	// The hot crowd is the head of the stripe: a low-s (near-flat) Zipf
	// over a slice ~1/16th the size of the full keyspace, so during the
	// hot phase every key drawn is genuinely popular across all workers.
	hotSpan := per / 16
	if hotSpan < 2 {
		hotSpan = 2
	}
	return &worker{
		id:      id,
		total:   per * cfg.workers,
		stride:  cfg.workers,
		client:  client,
		rnd:     r,
		zipf:    rand.NewZipf(r, cfg.zipfS, 1, uint64(per-1)),
		hotZipf: rand.NewZipf(r, 1.05, 1, uint64(hotSpan-1)),
		hot:     hot,
		keys:    make(map[int]*keyState),
	}
}

// keyFor spreads key index i evenly over the circle.
func keyFor(i, total int) oscar.Key {
	return oscar.KeyFromFloat((float64(i) + 0.5) / float64(total))
}

func (w *worker) state(idx int) *keyState {
	s, ok := w.keys[idx]
	if !ok {
		s = &keyState{}
		w.keys[idx] = s
	}
	return s
}

func transientOp(err error) bool {
	return errors.Is(err, oscar.ErrUnavailable) ||
		errors.Is(err, oscar.ErrRoutingFailed) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// run issues ops at the worker's share of the target rate until stop
// closes. Each op gets its own deadline so a partition stalls nothing.
func (w *worker) run(ctx context.Context, stop <-chan struct{}, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		w.step(ctx)
	}
}

func (w *worker) step(ctx context.Context) {
	idx := int(w.zipf.Uint64())*w.stride + w.id
	if w.hot.Load() {
		idx = int(w.hotZipf.Uint64())*w.stride + w.id
		w.stats.hotOps++
	}
	key := keyFor(idx, w.total)
	st := w.state(idx)

	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()

	t0 := time.Now()
	switch p := w.rnd.Float64(); {
	case p < 0.35:
		w.stats.puts++
		w.seq++
		val := fmt.Sprintf("w%d.k%d.n%d", w.id, idx, w.seq)
		_, err := w.client.Put(octx, key, []byte(val))
		switch {
		case err == nil:
			st.ackPut(val)
			w.stats.ackedWrites++
		case errors.Is(err, oscar.ErrWriteConcern):
			w.stats.shortfalls++
			st.candPut(val)
		case transientOp(err):
			w.stats.transients++
			st.candPut(val)
		default:
			w.stats.unexpected++
			st.candPut(val)
		}

	case p < 0.45:
		w.stats.dels++
		_, err := w.client.Delete(octx, key)
		switch {
		case err == nil:
			st.ackDelete()
			w.stats.ackedWrites++
		case errors.Is(err, oscar.ErrNotFound):
			// The owner processed the delete and had nothing: the key is
			// absent there now, but an indeterminate put may still lurk on
			// a divergent chain, so only loosen the ledger.
			st.candDel = true
		case errors.Is(err, oscar.ErrWriteConcern):
			w.stats.shortfalls++
			st.candDel = true
		case transientOp(err):
			w.stats.transients++
			st.candDel = true
		default:
			w.stats.unexpected++
			st.candDel = true
		}

	case p < 0.50:
		w.stats.scans++
		start := oscar.KeyFromFloat(w.rnd.Float64())
		sc := w.client.Scan(octx, start, start+scanSpan, oscar.WithLimit(64))
		for sc.Next() {
			w.stats.scanItems++
		}
		if err := sc.Err(); err != nil && !transientOp(err) {
			w.stats.unexpected++
		} else if err != nil {
			w.stats.transients++
		}

	default:
		w.stats.gets++
		res, err := w.client.Get(octx, key)
		switch {
		case err == nil:
			if !st.allows(string(res.Value), false) {
				w.stats.anomalies++
			}
		case errors.Is(err, oscar.ErrNotFound):
			if !st.allows("", true) {
				w.stats.anomalies++
			}
		case transientOp(err):
			w.stats.transients++
		default:
			w.stats.unexpected++
		}
	}
	w.stats.ops++
	w.stats.latencies = append(w.stats.latencies, time.Since(t0).Nanoseconds())
}

func startWorkers(ctx context.Context, cfg soakConfig, client oscar.Client) ([]*worker, chan struct{}, *sync.WaitGroup, *atomic.Bool) {
	interval := time.Duration(float64(time.Second) * float64(cfg.workers) / cfg.rate)
	stop := make(chan struct{})
	hot := &atomic.Bool{}
	var wg sync.WaitGroup
	ws := make([]*worker, cfg.workers)
	for i := range ws {
		ws[i] = newWorker(i, cfg, client, hot)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ctx, stop, interval)
		}(ws[i])
	}
	return ws, stop, &wg, hot
}

// ---------------------------------------------------------------------------
// mem mode: in-process cluster + fault plan

// churnState is mutated only by the plan goroutine and read only after
// the plan finished; no locking needed.
type churnState struct {
	added, crashed, restarted     int
	joinFailures, restartFailures int
	closed                        map[string]bool // dead transport addrs
}

func runMem(ctx context.Context, cfg soakConfig) error {
	if cfg.nodes < 10 {
		return fmt.Errorf("-nodes %d too small: the churn phases need at least 10", cfg.nodes)
	}
	if cfg.workers < 1 || cfg.keys/cfg.workers < 2 {
		return fmt.Errorf("need -keys >= 2*-workers (got %d keys, %d workers)", cfg.keys, cfg.workers)
	}

	dir := cfg.dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "oscar-soak-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	fn := faultnet.New(cfg.seed)
	log.Printf("booting %d-node cluster (r=%d, w=%d, seed=%d, data=%s)",
		cfg.nodes, cfg.replicas, cfg.writeConcern, cfg.seed, dir)
	c, err := oscar.StartCluster(ctx, cfg.nodes,
		oscar.WithSeed(cfg.seed),
		oscar.WithReplicas(cfg.replicas),
		oscar.WithWriteConcern(cfg.writeConcern),
		oscar.WithDataDir(dir),
		oscar.WithAutoMaintenance(250*time.Millisecond),
		oscar.WithAntiEntropy(time.Second),
		oscar.WithStabilizeRounds(4),
		oscar.WithTransportWrapper(fn.Wrap))
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	defer c.Close()

	// Victim casting, by ring order so the correlated crash really takes
	// two key-adjacent arc owners. Node 0 is the load client and immortal.
	order := make([]int, 0, cfg.nodes-1)
	for i := 1; i < cfg.nodes; i++ {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		return c.Node(order[a]).Key() < c.Node(order[b]).Key()
	})
	killA, killB := order[0], order[1]
	partVictim := order[3]
	restartA, restartB := order[5], order[7]
	slowNode := order[len(order)-1]

	churn := &churnState{closed: make(map[string]bool)}
	client := c.Node(0)
	ws, stopLoad, wg, hot := startWorkers(ctx, cfg, client)

	start := time.Now()
	plan := buildMemPlan(ctx, cfg, c, fn, churn, dir, start, hot,
		killA, killB, partVictim, restartA, restartB, slowNode)
	planErr := plan.Run(ctx, fn)
	close(stopLoad)
	wg.Wait()
	loadDur := time.Since(start)
	if planErr != nil {
		return fmt.Errorf("fault plan aborted: %w", planErr)
	}

	// Teardown: the weather is clear (drain phase); poll until every
	// tracked key reads back a ledger-allowed value.
	debugDump = func(k oscar.Key) []string {
		var lines []string
		for i := 0; i < c.Len(); i++ {
			n := c.Node(i)
			if churn.closed[n.Addr()] {
				continue
			}
			d := n.DebugKey(k)
			if d.HasPrimary || d.HasReplica || d.ReplicaTomb {
				lines = append(lines, fmt.Sprintf("    node[%d] key=%x primary=%q(%v) replica=%q(%v) rtomb=%v",
					i, uint64(n.Key()), d.Primary, d.HasPrimary, d.Replica, d.HasReplica, d.ReplicaTomb))
			}
		}
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		if res, err := client.Lookup(octx, k); err == nil {
			lines = append(lines, fmt.Sprintf("    lookup owner=%s key=%x", res.Owner.Addr, uint64(res.Owner.Key)))
		} else {
			lines = append(lines, fmt.Sprintf("    lookup err=%v", err))
		}
		cancel()
		return lines
	}
	verdict := verifyConverged(ctx, cfg, client, ws)
	fs := fn.Stats()

	res := buildReport(cfg, "mem", ws, loadDur, verdict, &fs, churn, cacheCounters(ctx, client))
	if err := writeReport(cfg.out, res); err != nil {
		return err
	}
	return printVerdict(cfg, ws, verdict, res)
}

func buildMemPlan(ctx context.Context, cfg soakConfig, c *oscar.Cluster, fn *faultnet.Network,
	churn *churnState, dir string, start time.Time, hot *atomic.Bool,
	killA, killB, partVictim, restartA, restartB, slowNode int) faultnet.Plan {

	d := cfg.duration
	frac := func(f float64) time.Duration { return time.Duration(float64(d) * f) }
	joinRnd := rng.Derive(cfg.seed, "soak-joiners")

	nodeCfg := func(key oscar.Key, seed int64, dataDir string) oscar.NodeConfig {
		return oscar.NodeConfig{
			Key:             key,
			MaxIn:           16,
			MaxOut:          16,
			Replicas:        cfg.replicas,
			WriteConcern:    cfg.writeConcern,
			AutoMaintenance: 250 * time.Millisecond,
			AntiEntropy:     time.Second,
			Seed:            seed,
			DataDir:         dataDir,
		}
	}

	crash := func(i int) {
		n := c.Node(i)
		churn.closed[n.Addr()] = true
		_ = n.Close()
		churn.crashed++
	}

	return faultnet.Plan{
		OnPhase: func(ph faultnet.Phase) {
			log.Printf("phase %-18s t=%v", ph.Name, time.Since(start).Round(time.Millisecond))
		},
		Phases: []faultnet.Phase{
			{
				// Steady lossy weather, plus one node dragging every
				// conversation it is part of — the heterogeneity the
				// overlay is designed around.
				Name:     "baseline",
				Duration: frac(0.10),
				Apply: func(n *faultnet.Network) {
					n.SetDefault(baseFaults)
					n.SlowNode(transport.Addr(c.Node(slowNode).Addr()), 2.5)
				},
			},
			{
				// A hot-key crowd: every worker narrows its draws to the
				// head of its stripe while the put/delete mix keeps
				// mutating the same keys — the route cache (on by
				// default) must absorb the read traffic without ever
				// serving a value the ledger disallows.
				Name:     "hot-key",
				Duration: frac(0.10),
				Apply: func(*faultnet.Network) {
					hot.Store(true)
				},
			},
			{
				// A flash crowd: three joiners arrive back to back while
				// the load runs. Each join splices an arc out of a live
				// owner (migrate) under loss.
				Name:     "flash-crowd",
				Duration: frac(0.10),
				Apply: func(*faultnet.Network) {
					hot.Store(false)
					for j := 0; j < 3; j++ {
						key := oscar.KeyFromFloat(joinRnd.Float64())
						_, err := c.AddNode(ctx, nodeCfg(key, cfg.seed+1000+int64(j), ""))
						if err != nil {
							log.Printf("flash-crowd join %d failed: %v", j, err)
							churn.joinFailures++
							continue
						}
						churn.added++
					}
				},
			},
			{
				// Two key-adjacent arc owners crash together: every write
				// they acked at w=3 has exactly one surviving copy, which
				// the next chain member must promote.
				Name:     "correlated-crash",
				Duration: frac(0.20),
				Apply: func(*faultnet.Network) {
					crash(killA)
					crash(killB)
				},
			},
			{
				// One node is fully cut off, both directions. The far side
				// heals around it and keeps acking writes to its old arc.
				Name:     "partition",
				Duration: frac(0.20),
				Apply: func(*faultnet.Network) {
					victim := c.Node(partVictim)
					var far []transport.Addr
					for _, n := range c.Nodes() {
						if n.Addr() != victim.Addr() && !churn.closed[n.Addr()] {
							far = append(far, transport.Addr(n.Addr()))
						}
					}
					fn.Partition([]transport.Addr{transport.Addr(victim.Addr())}, far)
				},
			},
			{
				// The partitioned node is declared failed and dies for
				// good before the blocks lift: its pre-partition state was
				// replicated, and readmitting a stale owner would shadow
				// every write its promoted successor acked in the
				// meantime (owner-authoritative anti-entropy). Then two
				// other nodes restart in place: clean close, WAL recovery,
				// rejoin — re-Join migrates the downtime delta back from
				// whoever owns the arc now.
				Name:     "heal+restart",
				Duration: frac(0.20),
				Apply: func(n *faultnet.Network) {
					crash(partVictim)
					n.Heal()
					for _, i := range []int{restartA, restartB} {
						old := c.Node(i)
						key := old.Key()
						churn.closed[old.Addr()] = true
						_ = old.Close()
						sleepCtx(ctx, 1200*time.Millisecond)
						_, err := c.AddNode(ctx, nodeCfg(key, cfg.seed+int64(i),
							filepath.Join(dir, fmt.Sprintf("node-%d", i))))
						if err != nil {
							log.Printf("restart of node %d failed: %v", i, err)
							churn.restartFailures++
							continue
						}
						churn.restarted++
						sleepCtx(ctx, 800*time.Millisecond)
					}
				},
			},
			{
				// Clear weather; the load keeps running so the report's
				// tail isn't all failure-path latencies.
				Name:     "drain",
				Duration: frac(0.10),
				Apply: func(n *faultnet.Network) {
					n.SetDefault(faultnet.Faults{})
					n.Heal()
				},
			},
		},
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// ---------------------------------------------------------------------------
// tcp mode: load + ledger client for an external ring

func runTCP(ctx context.Context, cfg soakConfig) error {
	if cfg.join == "" {
		return fmt.Errorf("tcp mode needs -join (address of any ring member)")
	}
	if cfg.workers < 1 || cfg.keys/cfg.workers < 2 {
		return fmt.Errorf("need -keys >= 2*-workers (got %d keys, %d workers)", cfg.keys, cfg.workers)
	}
	node, err := oscar.StartNode(oscar.NodeConfig{
		Listen:          cfg.listen,
		Key:             oscar.KeyFromFloat(rng.Derive(cfg.seed, "soak-client-key").Float64()),
		MaxIn:           16,
		MaxOut:          16,
		Replicas:        cfg.replicas,
		WriteConcern:    cfg.writeConcern,
		AutoMaintenance: 2 * time.Second,
		AntiEntropy:     2 * time.Second,
		Seed:            cfg.seed,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	// Rings boot one container at a time; wait out the window where the
	// introducer is not up yet.
	joinDeadline := time.Now().Add(time.Minute)
	for {
		if err = node.Join(ctx, cfg.join); err == nil {
			break
		}
		if time.Now().After(joinDeadline) || ctx.Err() != nil {
			return fmt.Errorf("join %s: %w", cfg.join, err)
		}
		sleepCtx(ctx, time.Second)
	}
	log.Printf("joined ring via %s as %s", cfg.join, node.Addr())

	ws, stopLoad, wg, _ := startWorkers(ctx, cfg, node)
	start := time.Now()
	sleepCtx(ctx, cfg.duration)
	close(stopLoad)
	wg.Wait()
	loadDur := time.Since(start)

	verdict := verifyConverged(ctx, cfg, node, ws)
	res := buildReport(cfg, "tcp", ws, loadDur, verdict, nil, nil, cacheCounters(ctx, node))
	if err := writeReport(cfg.out, res); err != nil {
		return err
	}
	return printVerdict(cfg, ws, verdict, res)
}

// ---------------------------------------------------------------------------
// Teardown verification

type soakVerdict struct {
	converged     bool
	convergence   time.Duration
	violations    []string
	lostAcked     int
	unresolved    int
	indeterminate int
	tracked       int
}

// verifyConverged polls the cluster until one full sweep reads every
// tracked key back as a ledger-allowed value, or the converge timeout
// expires. Background maintenance and anti-entropy keep running
// underneath — the poll measures the system healing itself.
func verifyConverged(ctx context.Context, cfg soakConfig, client oscar.Client, ws []*worker) soakVerdict {
	var v soakVerdict
	for _, w := range ws {
		for _, st := range w.keys {
			v.tracked++
			if st.indeterminate() {
				v.indeterminate++
			}
		}
	}
	log.Printf("verifying %d tracked keys (%d indeterminate) for up to %v",
		v.tracked, v.indeterminate, cfg.convergeTimeout)

	start := time.Now()
	deadline := start.Add(cfg.convergeTimeout)
	for {
		viol, lost, unresolved := sweep(ctx, client, ws)
		if len(viol) == 0 && unresolved == 0 {
			v.converged = true
			v.convergence = time.Since(start)
			v.violations, v.lostAcked, v.unresolved = nil, 0, 0
			return v
		}
		v.violations, v.lostAcked, v.unresolved = viol, lost, unresolved
		if time.Now().After(deadline) || ctx.Err() != nil {
			v.convergence = time.Since(start)
			return v
		}
		sleepCtx(ctx, 300*time.Millisecond)
	}
}

// debugDump, when set, reports where a violated key's value lives across
// the cluster's stores — temporary diagnostics for loss triage.
var debugDump func(oscar.Key) []string

// sweep runs one strict pass over every tracked key. unresolved counts
// keys whose reads kept failing (not a loss, but not convergence either).
func sweep(ctx context.Context, client oscar.Client, ws []*worker) (viol []string, lost, unresolved int) {
	const maxEvidence = 20
	record := func(msg string) {
		if len(viol) < maxEvidence {
			viol = append(viol, msg)
		} else if len(viol) == maxEvidence {
			viol = append(viol, "... more suppressed")
		}
	}
	for _, w := range ws {
		idxs := make([]int, 0, len(w.keys))
		for idx := range w.keys {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			st := w.keys[idx]
			val, absent, ok := finalGet(ctx, client, keyFor(idx, w.total))
			if !ok {
				unresolved++
				record(fmt.Sprintf("key %d: read kept failing", idx))
				continue
			}
			if st.allows(val, absent) {
				continue
			}
			if st.determinate() {
				lost++
			}
			got := fmt.Sprintf("%q", val)
			if absent {
				got = "nothing"
			}
			want := "an indeterminate candidate"
			if st.determinate() {
				if st.ackedDel {
					want = "nothing (acked delete)"
				} else {
					want = fmt.Sprintf("%q (acked)", st.acked)
				}
			}
			record(fmt.Sprintf("key %d: read %s, want %s", idx, got, want))
			if debugDump != nil {
				for _, line := range debugDump(keyFor(idx, w.total)) {
					record(line)
				}
			}
		}
	}
	return viol, lost, unresolved
}

// finalGet reads one key with per-attempt timeouts, riding out transient
// failures. ok=false means the read never resolved to found/not-found.
func finalGet(ctx context.Context, client oscar.Client, key oscar.Key) (val string, absent, ok bool) {
	for attempt := 0; attempt < 4; attempt++ {
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		res, err := client.Get(octx, key)
		cancel()
		switch {
		case err == nil:
			return string(res.Value), false, true
		case errors.Is(err, oscar.ErrNotFound):
			return "", true, true
		}
		if ctx.Err() != nil {
			return "", false, false
		}
		sleepCtx(ctx, 100*time.Millisecond)
	}
	return "", false, false
}

// ---------------------------------------------------------------------------
// Report

// cacheCounters reads the client's route-cache counters for the report;
// nil if Info itself fails (the report then just omits them).
func cacheCounters(ctx context.Context, client oscar.Client) map[string]float64 {
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	info, err := client.Info(octx)
	if err != nil {
		return nil
	}
	return map[string]float64{
		"route_cache_hits":   float64(info.RouteCacheHits),
		"route_cache_misses": float64(info.RouteCacheMisses),
	}
}

func buildReport(cfg soakConfig, mode string, ws []*worker, loadDur time.Duration,
	v soakVerdict, fs *faultnet.Stats, churn *churnState, caches map[string]float64) benchResult {

	var t workerStats
	var lat []int64
	for _, w := range ws {
		t.ops += w.stats.ops
		t.puts += w.stats.puts
		t.gets += w.stats.gets
		t.dels += w.stats.dels
		t.scans += w.stats.scans
		t.ackedWrites += w.stats.ackedWrites
		t.shortfalls += w.stats.shortfalls
		t.transients += w.stats.transients
		t.unexpected += w.stats.unexpected
		t.anomalies += w.stats.anomalies
		t.scanItems += w.stats.scanItems
		t.hotOps += w.stats.hotOps
		lat = append(lat, w.stats.latencies...)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return float64(lat[i]) / 1e6 // ms
	}
	var mean float64
	for _, l := range lat {
		mean += float64(l)
	}
	if len(lat) > 0 {
		mean /= float64(len(lat))
	}

	m := map[string]float64{
		"ops_per_sec":              float64(t.ops) / loadDur.Seconds(),
		"p50_ms":                   pct(0.50),
		"p95_ms":                   pct(0.95),
		"p99_ms":                   pct(0.99),
		"puts":                     float64(t.puts),
		"gets":                     float64(t.gets),
		"deletes":                  float64(t.dels),
		"scans":                    float64(t.scans),
		"scan_items":               float64(t.scanItems),
		"hot_ops":                  float64(t.hotOps),
		"acked_writes":             float64(t.ackedWrites),
		"write_concern_shortfalls": float64(t.shortfalls),
		"transient_errors":         float64(t.transients),
		"unexpected_errors":        float64(t.unexpected),
		"load_read_anomalies":      float64(t.anomalies),
		"tracked_keys":             float64(v.tracked),
		"indeterminate_keys":       float64(v.indeterminate),
		"lost_acked_writes":        float64(v.lostAcked),
		"violations":               float64(len(v.violations)),
		"unresolved_reads":         float64(v.unresolved),
		"convergence_ms":           float64(v.convergence.Milliseconds()),
	}
	if fs != nil {
		m["fault_calls"] = float64(fs.Calls)
		m["fault_dropped"] = float64(fs.Dropped)
		m["fault_blocked"] = float64(fs.Blocked)
		m["fault_overloaded"] = float64(fs.Overloaded)
		m["fault_delayed_ms"] = float64(fs.Delayed.Milliseconds())
	}
	if churn != nil {
		m["nodes_added"] = float64(churn.added)
		m["nodes_crashed"] = float64(churn.crashed)
		m["nodes_restarted"] = float64(churn.restarted)
		m["churn_failures"] = float64(churn.joinFailures + churn.restartFailures)
	}
	for k, val := range caches {
		m[k] = val
	}

	return benchResult{
		Name:       fmt.Sprintf("Soak/mode=%s/seed=%d", mode, cfg.seed),
		Env:        readEnvironment(),
		Procs:      runtime.GOMAXPROCS(0),
		Iterations: t.ops,
		NsPerOp:    mean,
		Metrics:    m,
	}
}

func writeReport(path string, res benchResult) error {
	enc, err := json.MarshalIndent([]benchResult{res}, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	return os.WriteFile(path, enc, 0o644)
}

// printVerdict prints the human summary and returns an error (exit 1)
// when the soak's invariants did not hold.
func printVerdict(cfg soakConfig, ws []*worker, v soakVerdict, res benchResult) error {
	m := res.Metrics
	fmt.Printf("soak: %d ops (%.0f/s), p50 %.1fms p95 %.1fms p99 %.1fms\n",
		res.Iterations, m["ops_per_sec"], m["p50_ms"], m["p95_ms"], m["p99_ms"])
	fmt.Printf("writes: %d acked, %d write-concern shortfalls, %d transient errors, %d unexpected\n",
		int(m["acked_writes"]), int(m["write_concern_shortfalls"]),
		int(m["transient_errors"]), int(m["unexpected_errors"]))
	if _, ok := m["nodes_crashed"]; ok {
		fmt.Printf("churn: +%d joined, %d crashed, %d restarted; faults: %d calls, %d dropped, %d blocked\n",
			int(m["nodes_added"]), int(m["nodes_crashed"]), int(m["nodes_restarted"]),
			int(m["fault_calls"]), int(m["fault_dropped"]), int(m["fault_blocked"]))
	}
	if _, ok := m["route_cache_hits"]; ok {
		fmt.Printf("caches: %d hot ops; route %d hits / %d misses\n",
			int(m["hot_ops"]), int(m["route_cache_hits"]), int(m["route_cache_misses"]))
	}
	if v.converged {
		fmt.Printf("converged: all %d tracked keys (%d indeterminate) read ledger-allowed values after %v\n",
			v.tracked, v.indeterminate, v.convergence.Round(time.Millisecond))
	}

	if res.Iterations == 0 {
		return fmt.Errorf("harness error: no ops executed")
	}
	if int(m["acked_writes"]) == 0 {
		return fmt.Errorf("harness error: no write was ever acknowledged")
	}
	if cfg.mode == "mem" {
		// The hot-key phase must have actually run its crowd through the
		// route cache — a zero here means the caching path went untested,
		// not that the invariants held.
		if int(m["hot_ops"]) == 0 {
			return fmt.Errorf("harness error: the hot-key phase drove no ops")
		}
		if m["route_cache_hits"]+m["route_cache_misses"] == 0 {
			return fmt.Errorf("harness error: the route cache never saw traffic")
		}
	}
	if !v.converged {
		for _, line := range v.violations {
			log.Printf("VIOLATION: %s", line)
		}
		return fmt.Errorf("did not converge within %v: %d violations (%d lost acked writes, %d unresolved reads)",
			cfg.convergeTimeout, len(v.violations), v.lostAcked, v.unresolved)
	}
	return nil
}
