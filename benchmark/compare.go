package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// bounded is one end-to-end metric of BENCHMARK.json: which direction is
// better, and the share of the first side's median by which the second may
// be worse before that counts as a regression.
type bounded struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver uses. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// side is the runs of one workload in one file.
type side struct {
	values            map[string][]float64
	segSpread         map[string]float64 // widest within-run spread seen
	attempted, failed int
	noisy             bool
}

func loadSides(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sides := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		s := sides[rec.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}, segSpread: map[string]float64{}}
			sides[rec.Workload] = s
		}
		for name, rd := range rec.Metrics {
			s.values[name] = append(s.values[name], rd.Value)
			s.segSpread[name] = max(s.segSpread[name], rd.Spread)
		}
		s.attempted += rec.Attempted
		s.failed += rec.Failed
		s.noisy = s.noisy || rec.Noisy
	}
	return sides, sc.Err()
}

// runSpread is how far apart the runs of one side read: the distance between
// the quartiles over the median with four runs or more, and the widest
// spread between the segments of a run with fewer.
func (s *side) runSpread(name string) float64 {
	vs := s.values[name]
	if m := median(vs); len(vs) >= 4 && m != 0 {
		q1, q3 := quartiles(vs)
		return (q3 - q1) / m
	}
	return s.segSpread[name]
}

// verdict applies one metric's bound to two sides. worse is the share of
// a's median by which b's median is worse (negative when better).
func verdict(m bounded, a, b *side) (string, float64) {
	va, vb := a.values[m.Name], b.values[m.Name]
	ma, mb := median(va), median(vb)
	if len(va) == 0 || len(vb) == 0 || ma == 0 {
		return "missing", 0
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (mb - ma) / ma
	if worse > m.Bound {
		return "REGRESSION", worse
	}
	if max(a.runSpread(m.Name), b.runSpread(m.Name)) > m.Bound {
		// Too noisy to call unchanged, unless every run of b beats every
		// run of a.
		sa, sb := sortedCopy(va), sortedCopy(vb)
		if (sign > 0 && sb[len(sb)-1] < sa[0]) || (sign < 0 && sb[0] > sa[len(sa)-1]) {
			return "improved", worse
		}
		return "unresolved", worse
	}
	if worse < -m.Bound {
		return "improved", worse
	}
	return "unchanged", worse
}

// compareFiles prints, one row per workload, how the runs in file b read
// against those in file a under the bounds of the BENCHMARK.json at
// benchPath. It reports whether any metric regressed or more operations
// failed.
func compareFiles(w io.Writer, benchPath, a, b string) (regressed bool, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []bounded               `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	sa, err := loadSides(a)
	if err != nil {
		return false, err
	}
	sb, err := loadSides(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s", "workload")
	for _, m := range bench.EndToEnd {
		fmt.Fprintf(w, " %-20s", fmt.Sprintf("%s(%.0f%%)", m.Name, 100*m.Bound))
	}
	fmt.Fprintln(w, " failed")
	for _, wl := range bench.Workloads {
		x, y := sa[wl.Name], sb[wl.Name]
		if x == nil || y == nil {
			continue
		}
		fmt.Fprintf(w, "%-14s", wl.Name)
		for _, m := range bench.EndToEnd {
			v, worse := verdict(m, x, y)
			regressed = regressed || v == "REGRESSION"
			fmt.Fprintf(w, " %-20s", fmt.Sprintf("%s %+.1f%%", v, 100*worse))
		}
		ra, rb := float64(x.failed)/float64(max(x.attempted, 1)), float64(y.failed)/float64(max(y.attempted, 1))
		fmt.Fprintf(w, " %.4f -> %.4f", ra, rb)
		if rb > ra {
			regressed = true
			fmt.Fprint(w, " MORE FAILED")
		}
		if x.noisy || y.noisy {
			fmt.Fprint(w, " (noisy: the host shifted during a run)")
		}
		fmt.Fprintln(w)
	}
	return regressed, nil
}
