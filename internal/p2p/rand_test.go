package p2p

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestSplitStreams pins Split's determinism: two streams seeded alike
// split identical streams, and successive splits of one differ.
func TestSplitStreams(t *testing.T) {
	a := &lockedRand{r: rand.New(rand.NewSource(7))}
	b := &lockedRand{r: rand.New(rand.NewSource(7))}
	var firsts []uint64
	for range 4 {
		sa, sb := a.Split(), b.Split()
		for j := range 64 {
			if x, y := sa.Uint64(), sb.Uint64(); x != y {
				t.Fatalf("draw %d of same-seed splits: %#x != %#x", j, x, y)
			}
		}
		firsts = append(firsts, sa.Uint64())
	}
	for i := range firsts {
		for j := range i {
			if firsts[i] == firsts[j] {
				t.Errorf("splits %d and %d draw the same value %#x", j, i, firsts[i])
			}
		}
	}
}

// TestSplitAllocs pins Split's cost: at most two allocations and under
// 100 bytes a call (a math/rand source is 5,424 bytes).
func TestSplitAllocs(t *testing.T) {
	l := &lockedRand{r: rand.New(rand.NewSource(1))}
	if allocs := testing.AllocsPerRun(100, func() { l.Split() }); allocs > 2 {
		t.Errorf("Split: %.1f allocations a call, want at most 2", allocs)
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		l.Split()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 100 {
		t.Errorf("Split: %d bytes a call, want under 100", per)
	}
}

func BenchmarkSplit(b *testing.B) {
	l := &lockedRand{r: rand.New(rand.NewSource(1))}
	b.ReportAllocs()
	for b.Loop() {
		l.Split()
	}
}
