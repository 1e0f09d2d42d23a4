package bench

import (
	"bytes"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tinyScale keeps harness tests fast while touching every code path.
func tinyScale() Scale {
	return Scale{
		Target:            300,
		GrowthCheckpoints: []int{150, 300},
		ChurnSizes:        []int{300},
		Queries:           200,
	}
}

func TestSeq(t *testing.T) {
	got := seq(2, 8, 2)
	want := []int{2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("seq = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seq = %v, want %v", got, want)
		}
	}
}

func TestScales(t *testing.T) {
	p := PaperScale()
	if p.Target != 10000 || len(p.GrowthCheckpoints) != 10 {
		t.Errorf("paper scale: %+v", p)
	}
	q := QuickScale()
	if q.Target != 3000 {
		t.Errorf("quick scale: %+v", q)
	}
	for _, cp := range q.GrowthCheckpoints {
		if cp > q.Target {
			t.Errorf("checkpoint %d beyond target", cp)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	h := New(&bytes.Buffer{}, tinyScale(), 1, false)
	if err := h.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAllExperimentsAtTinyScale executes every experiment end to end and
// checks the headline claims hold even at 300 peers.
func TestAllExperimentsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("harness integration test")
	}
	var out bytes.Buffer
	h := New(&out, tinyScale(), 1, false)
	for _, id := range AllExperiments {
		if err := h.Run(id); err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
	}
	text := out.String()
	for _, want := range []string{
		"Fig 1(a)", "Fig 1(b)", "Fig 1(c)", "Fig 2(a)", "Fig 2(b)",
		"T1", "X1", "A1", "A2", "A3", "A4", "A5",
		"cost_nofault", "degree", "volume",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// captureCSV makes h hand every table it emits to the returned map, keyed
// by experiment id, as CSV text.
func captureCSV(t *testing.T, h *Harness) map[string]string {
	files := map[string]string{}
	h.CSVWriter = func(name string, write func(f *os.File) error) error {
		f, err := os.CreateTemp(t.TempDir(), name)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := write(f); err != nil {
			return err
		}
		data, err := os.ReadFile(f.Name())
		if err != nil {
			return err
		}
		files[name] = string(data)
		return nil
	}
	return files
}

func TestCSVExport(t *testing.T) {
	var out bytes.Buffer
	h := New(&out, tinyScale(), 1, false)
	files := captureCSV(t, h)
	if err := h.Run("fig1a"); err != nil {
		t.Fatal(err)
	}
	csv, ok := files["fig1a"]
	if !ok {
		t.Fatal("no CSV produced")
	}
	if !strings.HasPrefix(csv, "degree,pdf_analytic,pdf_empirical\n") {
		t.Errorf("csv header: %q", csv[:60])
	}
	if strings.Count(csv, "\n") < 10 {
		t.Error("csv too short")
	}
}

// TestPaperClaims checks the paper's headline claims, with numbers, on the
// rows the harness emits at tiny scale (seed 1):
//   - T1: Oscar exploits ≥ 74 % of the degree volume, Mercury ≤ 62 %
//     (paper: ≈ 85 % vs ≈ 61 % at 10000 peers);
//   - Fig 1(c): at the last checkpoint the three cap distributions' search
//     costs lie within 12 % of each other (paper: "almost identical");
//   - Fig 2(a): at every size, cost without faults < after 10 % crashes <
//     after 33 % crashes.
//
// The bounds leave room for seed-to-seed spread at 300 peers, not for a
// construction that ignores the key distribution: uniform partition borders
// instead of sampled medians drop Oscar's volume below 0.72. The test asks
// 1000 lookups per checkpoint rather than tinyScale's 200. The three
// Fig 1(c) costs differ by ~5 % (realistic caps cost more); at 200 lookups
// their noise takes the spread past 12 % on about one seed in twenty, at
// 1000 the largest spread over seeds 1–60 is ~11 %.
func TestPaperClaims(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 1000
	h := New(&bytes.Buffer{}, sc, 1, false)
	files := captureCSV(t, h)
	for _, id := range []string{"volume", "fig1c", "fig2a"} {
		if err := h.Run(id); err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
	}

	vol := map[string]float64{}
	for _, row := range csvRows(t, files["volume"]) {
		vol[row["system"]] = row.num(t, "volume")
	}
	if v, ok := vol["oscar"]; !ok || v < 0.74 {
		t.Errorf("T1: oscar volume %.3f (present %v), want ≥ 0.74", v, ok)
	}
	if v, ok := vol["mercury"]; !ok || v > 0.62 {
		t.Errorf("T1: mercury volume %.3f (present %v), want ≤ 0.62", v, ok)
	}

	growth := csvRows(t, files["fig1c"])
	last := growth[len(growth)-1]
	costs := []float64{last.num(t, "cost_constant"), last.num(t, "cost_realistic"), last.num(t, "cost_stepped")}
	lo, hi := slices.Min(costs), slices.Max(costs)
	if spread := (hi - lo) / lo; spread > 0.12 {
		t.Errorf("Fig 1(c): costs %v at n=%s spread %.1f %%, want ≤ 12 %%", costs, last["size"], 100*spread)
	}

	for _, row := range csvRows(t, files["fig2a"]) {
		c0, c10, c33 := row.num(t, "cost_nofault"), row.num(t, "cost_10pct"), row.num(t, "cost_33pct")
		if !(c0 < c10 && c10 < c33) {
			t.Errorf("Fig 2(a) n=%s: costs %.3f / %.3f / %.3f, want no-fault < 10 %% < 33 %%", row["size"], c0, c10, c33)
		}
	}
}

// csvRow is one data row of an emitted table, by column name.
type csvRow map[string]string

func (r csvRow) num(t *testing.T, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r[col], 64)
	if err != nil {
		t.Fatalf("column %q: %v", col, err)
	}
	return v
}

// csvRows parses the CSV text of one emitted table; it fails the test when
// the table has no data rows.
func csvRows(t *testing.T, text string) []csvRow {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 2 {
		t.Fatalf("table without rows: %q", text)
	}
	header := strings.Split(lines[0], ",")
	var rows []csvRow
	for _, line := range lines[1:] {
		row := csvRow{}
		for i, cell := range strings.Split(line, ",") {
			row[header[i]] = cell
		}
		rows = append(rows, row)
	}
	return rows
}
