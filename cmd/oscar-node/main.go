// Command oscar-node runs one live Oscar peer on TCP through the public
// oscar.Client API. Start a first node, then join others to it; each
// process serves the overlay protocol and answers simple commands on
// stdin. SIGINT/SIGTERM shut the node down gracefully: the root context is
// cancelled (aborting in-flight calls), maintenance stops, and the
// transport closes before exit.
//
//	# terminal 1: create an overlay
//	oscar-node -listen 127.0.0.1:7001 -key 0.10
//
//	# terminal 2..n: join it
//	oscar-node -listen 127.0.0.1:7002 -key 0.55 -join 127.0.0.1:7001
//
// Stdin commands:
//
//	put <frac> <value>    store value under the key at fraction <frac>
//	get <frac>            fetch the value
//	delete <frac>         remove the value
//	scan <lo> <hi> [n]    stream items in [lo, hi) page by page (limit n)
//	putblob <frac> <file> store a file as a chunked blob based at <frac>
//	getblob <frac> <out>  stream a blob back into a file, verifying checksums
//	lookup <frac>         route to the key's owner
//	info                  print ring pointers, links, stored items,
//	                      tombstones, peer count and sync stats
//	wal-stats             print WAL size, frames since snapshot, and the
//	                      last snapshot time (needs -data-dir)
//	snapshot              force a compacted snapshot now (needs -data-dir)
//	stabilize             run one maintenance round
//	sync                  run one anti-entropy pass over the replica chain
//	rewire                rebuild long-range links
//	quit
//
// With -replicas r > 1 the node replicates its arc to its r-1 ring
// successors; -write-concern w makes every put/delete wait for w
// owner+chain acknowledgements and fail (with the achieved/required
// counts) when fewer arrive — the write still holds wherever it was
// acked; -anti-entropy sets how often it digest-syncs that chain in
// the background (repairing divergence without re-shipping arcs). Deletes
// are remembered for that repair for ten intervals, and at least ten
// minutes.
//
//	# durable writes: 3 copies, majority acks required
//	oscar-node -listen 127.0.0.1:7001 -key 0.10 -replicas 3 -write-concern 2
//
// With -data-dir the node is durable: every storage mutation is appended
// to a write-ahead log in that directory (fsynced per -fsync) and
// periodically compacted into snapshots. A graceful exit (quit, SIGINT,
// SIGTERM) writes a final snapshot plus a clean-shutdown marker; a
// restart on the same directory — clean or after a crash — recovers the
// shard, rejoins, and re-ships only what changed while it was down.
//
//	# survive restarts: log every write, fsync before acking
//	oscar-node -listen 127.0.0.1:7001 -key 0.10 -data-dir /var/lib/oscar/n1 -fsync always
//
// With -tls-cert/-tls-key every connection — the listener and all dials —
// runs over TLS. All ring members must use TLS, and a fleet can share one
// self-signed certificate (it doubles as the trust root). The transport
// itself is fixed: one pooled connection per peer, a 5 s per-call timeout,
// idle connections reaped after 60 s, and at most 256 calls in flight per
// connection and handlers running at once, the excess shed
// deterministically instead of queued without bound.
//
// With -daemon the node skips the stdin command loop and runs until a
// signal arrives — the mode for containers and process supervisors, where
// stdin is closed and the interactive loop would exit immediately.
//
// With -debug-addr the node serves the standard net/http/pprof endpoints
// on that address, for profiling a live peer, and /debug/state: the
// node's info as JSON (the same record, and the same bounded ring walk,
// as the info command). It is off by default and should stay on a
// loopback or otherwise private address:
//
//	oscar-node -listen 127.0.0.1:7001 -key 0.10 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	curl http://127.0.0.1:6060/debug/state
//
// The -fault-* flags wrap the node's transport in a seeded fault injector
// (internal/faultnet): every outbound call rolls deterministic per-link
// dice for drops (-fault-drop), duplication (-fault-dup), and added
// latency (-fault-latency ± -fault-jitter). Two fleets started with the
// same -fault-seed and topology see the same fault schedule — chaos runs
// are reproducible:
//
//	# a lossy, slow node: 2% drops, ~5ms extra latency per call
//	oscar-node -daemon -join seed:7001 -fault-seed 42 -fault-drop 0.02 \
//	    -fault-latency 3ms -fault-jitter 4ms
package main

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	oscar "github.com/oscar-overlay/oscar"
	"github.com/oscar-overlay/oscar/internal/faultnet"
	"github.com/oscar-overlay/oscar/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oscar-node: ")

	var (
		listen      = flag.String("listen", "127.0.0.1:0", "listen address")
		keyFrac     = flag.Float64("key", -1, "position on the circle in [0,1); -1 = time-derived")
		join        = flag.String("join", "", "address of any overlay member to join through")
		maxIn       = flag.Int("max-in", 16, "in-link budget (ρmax_in)")
		maxOut      = flag.Int("max-out", 16, "out-link budget (ρmax_out)")
		replicas    = flag.Int("replicas", 1, "replication factor r: copies on the owner's r-1 ring successors")
		writeCon    = flag.Int("write-concern", 1, "owner+chain acks a put/delete must collect (1 = owner only; clamped to -replicas)")
		antiEntropy = flag.Duration("anti-entropy", time.Minute, "digest-sync the replica chain this often (0 = manual `sync` only; needs -replicas > 1 and a running maintenance loop); deletes are remembered for 10 intervals, at least 10m")
		interval    = flag.Duration("stabilize", 2*time.Second, "stabilisation interval (0 = manual)")
		rewireEvery = flag.Int("rewire-every", 5, "rebuild long links every N stabilisations (0 = manual)")
		tlsCert     = flag.String("tls-cert", "", "PEM certificate; with -tls-key, all connections are TLS (every ring member must use TLS, and the certificate doubles as the trust root)")
		tlsKey      = flag.String("tls-key", "", "PEM private key for -tls-cert")
		dataDir     = flag.String("data-dir", "", "data directory for the WAL + snapshots (empty = memory only)")
		fsync       = flag.String("fsync", "interval", "WAL fsync policy: always, interval, or never (needs -data-dir)")
		daemon      = flag.Bool("daemon", false, "no stdin command loop: run until SIGINT/SIGTERM (for containers)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and /debug/state on this address (empty = off); keep it private")

		faultSeed    = flag.Int64("fault-seed", 0, "seed for the deterministic fault injector (active when any -fault-* rate is set)")
		faultDrop    = flag.Float64("fault-drop", 0, "probability an outbound call is dropped before delivery")
		faultDup     = flag.Float64("fault-dup", 0, "probability an outbound call is delivered twice")
		faultLatency = flag.Duration("fault-latency", 0, "fixed extra latency per outbound call")
		faultJitter  = flag.Duration("fault-jitter", 0, "random extra latency per outbound call, uniform in [0, jitter)")
	)
	flag.Parse()

	// The root context governs every overlay operation; a signal cancels
	// it, aborting in-flight multi-hop calls before the node shuts down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	key := oscar.KeyFromFloat(*keyFrac)
	if *keyFrac < 0 {
		key = oscar.Key(time.Now().UnixNano()) * 2654435761 // spread-ish
	}

	tlsConf, err := loadTLS(*tlsCert, *tlsKey)
	if err != nil {
		log.Fatal(err)
	}

	// The fault injector wraps the node's own transport: caller-side,
	// seeded, per-link deterministic. Faults apply to this node's
	// outbound calls only — each fleet member carries its own weather.
	var wrap func(transport.Transport) transport.Transport
	faults := faultnet.Faults{Drop: *faultDrop, Duplicate: *faultDup, Latency: *faultLatency, Jitter: *faultJitter}
	if faults != (faultnet.Faults{}) {
		fn := faultnet.New(*faultSeed)
		fn.SetDefault(faults)
		wrap = fn.Wrap
		fmt.Printf("fault injection on: seed=%d drop=%.3f dup=%.3f latency=%s jitter=%s\n",
			*faultSeed, *faultDrop, *faultDup, *faultLatency, *faultJitter)
	}

	node, err := oscar.StartNode(oscar.NodeConfig{
		Listen:        *listen,
		Key:           key,
		MaxIn:         *maxIn,
		MaxOut:        *maxOut,
		Replicas:      *replicas,
		WriteConcern:  *writeCon,
		AntiEntropy:   *antiEntropy,
		Seed:          time.Now().UnixNano(),
		TLS:           tlsConf,
		DataDir:       *dataDir,
		Fsync:         *fsync,
		WrapTransport: wrap,
	})
	if err != nil {
		log.Fatal(err)
	}
	tlsNote := ""
	if tlsConf != nil {
		tlsNote = " (tls)"
	}
	fmt.Printf("node up at %s, key %s%s\n", node.Addr(), node.Key(), tlsNote)
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			_ = node.Close()
			log.Fatalf("debug-addr: %v", err)
		}
		defer ln.Close()
		fmt.Printf("pprof at http://%s/debug/pprof/, state at http://%[1]s/debug/state\n", ln.Addr())
		go func() { _ = http.Serve(ln, debugMux(node)) }()
	}
	if rec := node.Recovery(); rec.Enabled {
		how := "crash"
		if rec.Clean {
			how = "clean shutdown"
		}
		if rec.SnapshotAt.IsZero() && rec.ReplayedFrames == 0 {
			fmt.Printf("durable: fresh data dir %s (fsync=%s)\n", *dataDir, *fsync)
		} else {
			fmt.Printf("durable: recovered %d items, %d replica copies, %d tombstones after %s (%d WAL frames replayed, torn tail=%v)\n",
				rec.Items, rec.ReplicaItems, rec.Tombstones, how, rec.ReplayedFrames, rec.TornTail)
		}
	}

	if *join != "" {
		if err := node.Join(ctx, *join); err != nil {
			_ = node.Close()
			log.Fatal(err)
		}
		info, _ := node.Info(ctx)
		fmt.Printf("joined via %s; succ=%s pred=%s, %d long links\n",
			*join, info.Successor.Key, info.Predecessor.Key, info.OutLinks)
	}

	if *interval > 0 {
		node.StartMaintenance(*interval, *rewireEvery)
	}

	if *daemon {
		// Containers and supervisors close stdin, so the interactive loop
		// would exit immediately; block on the signal context instead.
		<-ctx.Done()
		fmt.Println("\nsignal received, shutting down…")
	} else {
		// The stdin reader feeds a channel so the main loop can multiplex
		// user commands with context cancellation from a signal.
		lines := make(chan string)
		go func() {
			defer close(lines)
			sc := bufio.NewScanner(os.Stdin)
			for sc.Scan() {
				select {
				case lines <- sc.Text():
				case <-ctx.Done():
					return
				}
			}
		}()

		fmt.Print("> ")
	loop:
		for {
			select {
			case <-ctx.Done():
				fmt.Println("\nsignal received, shutting down…")
				break loop
			case line, ok := <-lines:
				if !ok {
					break loop
				}
				if err := execute(ctx, node, strings.Fields(line)); err != nil {
					if errors.Is(err, errQuit) {
						break loop
					}
					fmt.Println("error:", err)
				}
				fmt.Print("> ")
			}
		}
	}

	// Graceful shutdown: stop the background loop first so it cannot race
	// the transport teardown, then close the node (listener + pools).
	node.StopMaintenance()
	if err := node.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	fmt.Println("node stopped")
}

var errQuit = errors.New("quit")

// debugMux serves the net/http/pprof handlers and /debug/state. (The pprof
// package also registers its handlers on http.DefaultServeMux, which is
// not served.)
func debugMux(node *oscar.Node) *http.ServeMux {
	mux := http.NewServeMux()
	// Info is one state read plus the info command's bounded ring walk:
	// one message per peer, up to 128.
	mux.HandleFunc("/debug/state", func(w http.ResponseWriter, r *http.Request) {
		info, err := node.Info(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(info)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// loadTLS builds the node's TLS configuration from a PEM certificate and
// key pair. The certificate is also installed as the trust root, so a
// fleet sharing one self-signed certificate verifies each other without a
// separate CA.
func loadTLS(certFile, keyFile string) (*tls.Config, error) {
	if certFile == "" && keyFile == "" {
		return nil, nil
	}
	if certFile == "" || keyFile == "" {
		return nil, fmt.Errorf("-tls-cert and -tls-key must be set together")
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("load TLS keypair: %w", err)
	}
	roots := x509.NewCertPool()
	pem, err := os.ReadFile(certFile)
	if err != nil {
		return nil, err
	}
	if !roots.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("no certificates in %s", certFile)
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}, RootCAs: roots}, nil
}

func fmtSnapTime(t time.Time) string {
	if t.IsZero() {
		return "never"
	}
	return fmt.Sprintf("%s (%s ago)", t.Format(time.RFC3339), time.Since(t).Round(time.Second))
}

func parseFrac(s string) (oscar.Key, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 || f >= 1 {
		return 0, fmt.Errorf("want a fraction in [0,1), got %q", s)
	}
	return oscar.KeyFromFloat(f), nil
}

func execute(ctx context.Context, node *oscar.Node, args []string) error {
	if len(args) == 0 {
		return nil
	}
	switch args[0] {
	case "quit", "exit":
		return errQuit

	case "info":
		info, err := node.Info(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("self  %s key=%s\n", info.Self.Addr, info.Self.Key)
		fmt.Printf("succ  %s key=%s\n", info.Successor.Addr, info.Successor.Key)
		fmt.Printf("pred  %s key=%s\n", info.Predecessor.Addr, info.Predecessor.Key)
		fmt.Printf("links out=%d in=%d items=%d replicas=%d (r=%d, w=%d) tombstones=%d\n",
			info.OutLinks, info.InLinks, info.StoredItems, info.ReplicaItems, info.Replicas, info.WriteConcern, info.Tombstones)
		if info.Peers >= 0 {
			fmt.Printf("peers %d\n", info.Peers)
		} else {
			fmt.Println("peers: more than 128 (not counted)")
		}
		ae := info.AntiEntropy
		if ae.Rounds > 0 {
			fmt.Printf("anti-entropy: %d rounds, %d keys pushed, %d tombstones, %d dropped\n",
				ae.Rounds, ae.KeysPushed, ae.TombstonesPushed, ae.Dropped)
		}
		if info.RouteCacheHits+info.RouteCacheMisses > 0 {
			fmt.Printf("route cache: %d hits / %d misses\n", info.RouteCacheHits, info.RouteCacheMisses)
		}
		if info.Durable {
			fmt.Printf("durable: wal=%dB frames=%d last-snapshot=%s\n",
				info.WALBytes, info.WALFrames, fmtSnapTime(info.LastSnapshot))
		}
		return nil

	case "wal-stats":
		info, err := node.Info(ctx)
		if err != nil {
			return err
		}
		if !info.Durable {
			return fmt.Errorf("node runs without -data-dir; no WAL to report")
		}
		fmt.Printf("wal size:             %d bytes\n", info.WALBytes)
		fmt.Printf("frames since snapshot: %d\n", info.WALFrames)
		fmt.Printf("last snapshot:        %s\n", fmtSnapTime(info.LastSnapshot))
		return nil

	case "snapshot":
		info, err := node.Info(ctx)
		if err != nil {
			return err
		}
		if !info.Durable {
			return fmt.Errorf("node runs without -data-dir; nothing to snapshot")
		}
		if err := node.Snapshot(); err != nil {
			return err
		}
		fmt.Println("snapshot written, wal truncated")
		return nil

	case "stabilize":
		node.Stabilize(ctx)
		return nil

	case "sync":
		stats, err := node.AntiEntropy(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("synced: %d rounds, %d keys pushed, %d tombstones, %d dropped\n",
			stats.Rounds, stats.KeysPushed, stats.TombstonesPushed, stats.Dropped)
		return nil

	case "rewire":
		if err := node.Rewire(ctx); err != nil {
			return err
		}
		info, err := node.Info(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%d long-range links\n", info.OutLinks)
		return nil

	case "lookup":
		if len(args) != 2 {
			return fmt.Errorf("usage: lookup <frac>")
		}
		k, err := parseFrac(args[1])
		if err != nil {
			return err
		}
		res, err := node.Lookup(ctx, k)
		if err != nil {
			return err
		}
		fmt.Printf("owner %s key=%s (%d messages)\n", res.Owner.Addr, res.Owner.Key, res.Cost)
		return nil

	case "put":
		if len(args) < 3 {
			return fmt.Errorf("usage: put <frac> <value>")
		}
		k, err := parseFrac(args[1])
		if err != nil {
			return err
		}
		res, err := node.Put(ctx, k, []byte(strings.Join(args[2:], " ")))
		if errors.Is(err, oscar.ErrWriteConcern) {
			fmt.Printf("UNDER-REPLICATED: %v — stored at %s but below the requested durability\n", err, res.Owner.Addr)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("stored at %s (%d messages, %d acks, replaced=%v)\n", res.Owner.Addr, res.Cost, res.Acks, res.Replaced)
		return nil

	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <frac>")
		}
		k, err := parseFrac(args[1])
		if err != nil {
			return err
		}
		res, err := node.Get(ctx, k)
		if errors.Is(err, oscar.ErrNotFound) {
			fmt.Printf("not found (%d messages)\n", res.Cost)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("%q (%d messages)\n", res.Value, res.Cost)
		return nil

	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("usage: delete <frac>")
		}
		k, err := parseFrac(args[1])
		if err != nil {
			return err
		}
		res, err := node.Delete(ctx, k)
		if errors.Is(err, oscar.ErrNotFound) {
			fmt.Printf("not found (%d messages)\n", res.Cost)
			return nil
		}
		if errors.Is(err, oscar.ErrWriteConcern) {
			fmt.Printf("UNDER-REPLICATED: %v — deleted where acked, below the requested durability\n", err)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("deleted (%d messages, %d acks)\n", res.Cost, res.Acks)
		return nil

	case "scan":
		if len(args) != 3 && len(args) != 4 {
			return fmt.Errorf("usage: scan <lo> <hi> [limit]")
		}
		lo, err := parseFrac(args[1])
		if err != nil {
			return err
		}
		hi, err := parseFrac(args[2])
		if err != nil {
			return err
		}
		var opts []oscar.ScanOption
		if len(args) == 4 {
			limit, err := strconv.Atoi(args[3])
			if err != nil {
				return fmt.Errorf("bad limit %q", args[3])
			}
			opts = append(opts, oscar.WithLimit(limit))
		}
		count := 0
		sc := node.Scan(ctx, lo, hi, opts...)
		for sc.Next() {
			it := sc.Item()
			fmt.Printf("  %s = %q\n", it.Key, it.Value)
			count++
		}
		if err := sc.Err(); err != nil {
			return err
		}
		st := sc.Stats()
		fmt.Printf("%d items streamed in %d pages from %d peers (%d messages)\n", count, st.Pages, st.PeersScanned, st.Cost)
		return nil

	case "putblob":
		if len(args) != 3 {
			return fmt.Errorf("usage: putblob <frac> <file>")
		}
		base, err := parseFrac(args[1])
		if err != nil {
			return err
		}
		f, err := os.Open(args[2])
		if err != nil {
			return err
		}
		defer f.Close()
		start := time.Now()
		m, err := node.PutBlob(ctx, base, f)
		if err != nil {
			return err
		}
		fmt.Printf("stored %d bytes as %d chunks under [%s, %s) in %v (crc %08x)\n",
			m.Size, m.Chunks, base, base+oscar.Key(m.Chunks)+1, time.Since(start).Round(time.Millisecond), m.CRC)
		return nil

	case "getblob":
		if len(args) != 3 {
			return fmt.Errorf("usage: getblob <frac> <out-file>")
		}
		base, err := parseFrac(args[1])
		if err != nil {
			return err
		}
		br, err := node.GetBlob(ctx, base)
		if err != nil {
			return err
		}
		defer br.Close()
		out, err := os.Create(args[2])
		if err != nil {
			return err
		}
		start := time.Now()
		n, err := io.Copy(out, br)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("after %d bytes: %w", n, err)
		}
		m := br.Manifest()
		fmt.Printf("streamed %d bytes (%d chunks, verified crc %08x) to %s in %v\n",
			n, m.Chunks, m.CRC, args[2], time.Since(start).Round(time.Millisecond))
		return nil

	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}
