// Command oscar-bench regenerates every table and figure of the paper's
// evaluation:
//
//	fig1a             synthetic spiky node-degree pdf
//	fig1b             relative degree load per peer (three cap distributions)
//	fig1c             average search cost vs network size (three cap distributions)
//	fig2a             search cost under churn, constant caps
//	fig2b             search cost under churn, "realistic" caps
//	volume            degree-volume utilisation: Oscar vs Mercury (≈85% vs ≈61%)
//	homog             homogeneous-caps search cost: Oscar vs Mercury vs Kleinberg
//	ablation-p2c      power-of-two-choices on vs off
//	ablation-samples  samples per median estimate
//	ablation-oracle   sampled vs exact-median partitions
//	ablation-routing  clockwise vs bidirectional routing, healthy and churned
//	access-skew       per-peer forwarding load under uniform vs Zipf targets
//
// By default the harness runs at a laptop-friendly scale (3000 peers); pass
// -full for the paper's 10000-peer setup. Results are printed as aligned
// tables on stdout, which depends only on the scale and the seed (`make
// paper` commits it as BENCH_paper.txt); the wall time goes to stderr.
// -csv DIR additionally writes one CSV per experiment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/oscar-overlay/oscar/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oscar-bench: ")

	var (
		exp  = flag.String("exp", "all", "comma-separated experiment ids (all|"+strings.Join(bench.AllExperiments, "|")+")")
		full = flag.Bool("full", false, "paper scale: 10000 peers (default: 3000)")
		seed = flag.Int64("seed", 1, "root random seed")
		csv  = flag.String("csv", "", "directory to write per-experiment CSV files")
		v    = flag.Bool("v", false, "log progress")
	)
	flag.Parse()

	scale := bench.QuickScale()
	if *full {
		scale = bench.PaperScale()
	}
	h := bench.New(os.Stdout, scale, *seed, *v)
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			log.Fatal(err)
		}
		h.CSVWriter = func(name string, write func(f *os.File) error) error {
			f, err := os.Create(filepath.Join(*csv, name+".csv"))
			if err != nil {
				return err
			}
			defer f.Close()
			return write(f)
		}
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = bench.AllExperiments
	}
	start := time.Now()
	for _, id := range ids {
		if err := h.Run(strings.TrimSpace(id)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "\n# done in %.1fs\n", time.Since(start).Seconds())
}
