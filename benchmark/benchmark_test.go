package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 needs 1000 samples: ten beyond it")
	}
}

func TestMedianOfSegments(t *testing.T) {
	window := 4 * time.Second
	var samples []sample
	// Segment 0 reads 1 ms, segment 1 reads 2 ms, segment 2 reads 9 ms (a
	// stall), segment 3 reads 2 ms; a late completion lands in the last.
	for i, ms := range []int{1, 2, 9, 2} {
		for j := 0; j < 3; j++ {
			samples = append(samples, sample{at: time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond, dur: time.Duration(ms) * time.Millisecond})
		}
	}
	samples = append(samples, sample{at: window + time.Millisecond, dur: 2 * time.Millisecond})
	segs := bySegment(samples, window, 4)
	if len(segs[3]) != 4 {
		t.Fatalf("late sample not in last segment: %v", segs)
	}
	p50s := make([]float64, 4)
	for i, s := range segs {
		p50s[i] = percentile(s, 0.5)
	}
	rd := ofSegments("ms", p50s, len(samples))
	if rd.Value != 2 || rd.Samples != 13 {
		t.Errorf("median of segments = %+v, want value 2 on 13 samples: one stalled segment must not move it", rd)
	}
	if want := (9.0 - 1.0) / 2.0; rd.Spread != want {
		t.Errorf("spread = %v, want (max-min)/median = %v", rd.Spread, want)
	}
}

func TestSpanUnionSelfTime(t *testing.T) {
	if got := unionLength([][2]int64{{30, 60}, {10, 40}, {70, 80}, {90, 200}}, 0, 100); got != 70 {
		t.Errorf("unionLength = %d, want 70: overlaps once, clipped to the parent", got)
	}
	spans := []span{
		{ID: 1, Layer: layerClient, Op: "put", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerTransport, Op: "find_owner", Start: 5, End: 25},
		{ID: 3, Parent: 1, Layer: layerTransport, Op: "put", Start: 25, End: 50},
		// The replicate fan-out runs in parallel: 30 long, not 50.
		{ID: 4, Parent: 1, Layer: layerTransport, Op: "replicate", Start: 55, End: 80},
		{ID: 5, Parent: 1, Layer: layerTransport, Op: "replicate", Start: 60, End: 85, Err: true},
		{ID: 6, Layer: layerHandle, Op: "put", Node: "a", Start: 30, End: 40},
		{ID: 7, Layer: layerHandle, Op: "replicate", Node: "b", Start: 60, End: 75},
		{ID: 8, Layer: layerHandle, Op: "replicate", Node: "b", Start: 76, End: 81},
		// Ended outside the window: ignored.
		{ID: 9, Layer: layerClient, Op: "put", Start: 90, End: 150},
	}
	st := analyze(spans, 0, 120)
	if got := st.self["put"]; len(got) != 1 || got[0] != 25 {
		t.Errorf("self time = %v, want [25]: 100 minus the 75 its calls cover", got)
	}
	if len(st.fanout) != 1 || st.fanout[0] != 30 {
		t.Errorf("fan-out = %v, want [30]", st.fanout)
	}
	if st.opCalls != 4 || st.fabricCalls != 4 || st.failedCalls != 1 {
		t.Errorf("calls = %d/%d/%d, want 4/4/1", st.opCalls, st.fabricCalls, st.failedCalls)
	}
	if st.busiest != 20 {
		t.Errorf("busiest node = %v, want 20 (node b)", st.busiest)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// writeRuns writes one --out file holding a run per value of ops_s.
func writeRuns(t *testing.T, dir, name string, segSpread float64, failed int, opsS ...float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	for _, v := range opsS {
		rec := &record{Workload: "kv-lan", Attempted: 1000, Failed: failed, Metrics: map[string]reading{
			"ops_s": {Value: v, Unit: "1/s", Spread: segSpread},
		}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareRules(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"kv-lan"}],"end_to_end":[{"name":"ops_s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeRuns(t, dir, "base", 0.02, 0, 1000, 1010, 990, 1005, 995)
	for _, tc := range []struct {
		name      string
		segSpread float64
		failed    int
		values    []float64
		want      string
		regressed bool
	}{
		{"same", 0.02, 0, []float64{1001, 1009, 991, 1004, 996}, "unchanged", false},
		{"slower", 0.02, 0, []float64{850, 860, 840, 855, 845}, "REGRESSION", true},
		{"faster", 0.02, 0, []float64{1200, 1210, 1190, 1205, 1195}, "improved", false},
		// Runs too far apart to call it unchanged.
		{"noisy", 0.02, 0, []float64{1000, 1300, 800, 1100, 900}, "unresolved", false},
		// ... unless every run beats every run of the base.
		{"noisy-but-better", 0.02, 0, []float64{1100, 1500, 1050, 1300, 1200}, "improved", false},
		// Fewer than four runs: the spread between segments decides.
		{"one-shaky-run", 0.3, 0, []float64{1000}, "unresolved", false},
		{"more-failures", 0.02, 3, []float64{1001, 1009, 991, 1004, 996}, "MORE FAILED", true},
	} {
		other := writeRuns(t, dir, tc.name, tc.segSpread, tc.failed, tc.values...)
		var out bytes.Buffer
		regressed, err := compareFiles(&out, bench, base, other)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%v, want %v with %q in:\n%s", tc.name, regressed, tc.regressed, tc.want, out.String())
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the program together:
// same workloads and reasons, same metric names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var bench struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []named, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndDefs)
	check("per_layer", bench.PerLayer, perLayerDefs)
	specs := workloads()
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bench.Workloads[i].Name != sp.name || bench.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bench.Workloads[i].Name, bench.Workloads[i].Why, sp.name, sp.why)
		}
	}
}

// toy shrinks a workload to smoke-test size.
func toy(sp spec) spec {
	sp.nodes, sp.keys, sp.clients = 4, 500, 2
	if sp.scanLimit > 0 {
		sp.scanLimit = 128
	}
	return sp
}

// TestWorkloadsSmoke runs every workload at toy scale with tracing on, and
// one of them untraced: every answer checked, every metric present.
func TestWorkloadsSmoke(t *testing.T) {
	for _, sp := range workloads() {
		t.Run(sp.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := options{seed: 7, seconds: 1, trace: true, warmup: 200 * time.Millisecond, tmp: dir, spans: filepath.Join(dir, "spans.jsonl")}
			rec, err := run(context.Background(), toy(sp), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Fatalf("not correct: %d failed of %d, %d acked writes lost: %v", rec.Failed, rec.Attempted, rec.LostAckedWrites, rec.Errors)
			}
			for _, d := range perLayerDefs {
				rd, ok := rec.Metrics[d.name]
				if !ok || rd.Unit != d.unit || math.IsNaN(rd.Value) || math.IsInf(rd.Value, 0) || rd.Value < 0 {
					t.Errorf("%s = %+v (present %v)", d.name, rd, ok)
				}
			}
			for _, name := range []string{"transport.calls_per_op", "transport.call_us", "p2p.handle_find_owner_us", "p2p.hops_per_lookup", "loadgen.trace_overhead_ratio"} {
				if rec.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rec.Metrics[name].Value)
				}
			}
			if sp.linkDelay > 0 && rec.Metrics["faultnet.delay_ms_per_op"].Value <= 0 {
				t.Error("no link delay was injected")
			}
			if sp.fsync != "" && rec.Metrics["wal.replayed_frames"].Value <= 0 {
				t.Error("the crash copy replayed no WAL frames")
			}
			if info, err := os.Stat(opt.spans); err != nil || info.Size() == 0 {
				t.Errorf("span dump: %v", err)
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		sp, _ := workloadByName("put-fsync")
		opt := options{seed: 7, seconds: 1, warmup: 200 * time.Millisecond, tmp: t.TempDir()}
		rec, err := run(context.Background(), toy(sp), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct {
			t.Fatalf("not correct: %d failed, %d acked writes lost: %v", rec.Failed, rec.LostAckedWrites, rec.Errors)
		}
		for _, d := range endToEndDefs {
			if rd, ok := rec.Metrics[d.name]; !ok || rd.Value <= 0 {
				t.Errorf("%s = %+v (present %v), want > 0", d.name, rd, ok)
			}
		}
	})
}
