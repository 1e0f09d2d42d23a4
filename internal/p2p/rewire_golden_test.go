package p2p

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/oscar-overlay/oscar/internal/transport"
)

// update rewrites the golden records (testdata/*_golden.txt) from this
// run instead of comparing against them: go test -run Golden -update.
var update = flag.Bool("update", false, "rewrite the golden records instead of comparing")

// rewireGoldenFile holds the record of one rewire pass over a 32-node
// evenly spaced ring: every node's out-links, then the messages the ring
// sent by op. The construction is deterministic per seed, so a change that
// moves one link or one message changes the live construction.
const rewireGoldenFile = "testdata/rewire_golden.txt"

// rewireRecord boots a 32-node evenly spaced ring with the route cache
// off and no boot rewire, rewires every node once in ring order and
// returns the record: one line per node listing its out-links by node
// index, in link order, then one line of sent messages by op. A message a
// node addresses to itself fails the test: the pass reads its own
// neighbours locally.
func rewireRecord(t *testing.T) string {
	t.Helper()
	const size = 32
	nodes, trs, _ := carryRing(t, size, false, nil)
	for _, n := range nodes {
		if err := n.Rewire(bg); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString(linkLines(nodes))
	sent := make(map[transport.Op]int)
	for i, tr := range trs {
		tr.mu.Lock()
		for op, c := range tr.sent {
			sent[op] += c
		}
		if len(tr.sentSelf) > 0 {
			t.Errorf("node %02d sent itself %v", i, tr.sentSelf)
		}
		tr.mu.Unlock()
	}
	ops := make([]string, 0, len(sent))
	for op := range sent {
		ops = append(ops, string(op))
	}
	slices.Sort(ops)
	b.WriteString("sent:")
	for _, op := range ops {
		fmt.Fprintf(&b, " %s=%d", op, sent[transport.Op(op)])
	}
	b.WriteByte('\n')
	return b.String()
}

// linkLines lists every node's out-links by node index, in link order, one
// line per node.
func linkLines(nodes []*Node) string {
	index := make(map[transport.Addr]int, len(nodes))
	for i, n := range nodes {
		index[n.Self().Addr] = i
	}
	var b strings.Builder
	for i, n := range nodes {
		fmt.Fprintf(&b, "node %02d:", i)
		for _, ref := range n.State().Out {
			fmt.Fprintf(&b, " %02d", index[ref.Addr])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRewireOwnStream pins that a rewire's links depend on nothing but the
// stream it splits off the node's at its start. Two same-seed 32-node
// rings rewire every node in ring order, and on one of them a goroutine
// draws from every node's stream while the passes run (after each pass
// has taken its own), as the overload backoff may: both wire the same
// links. A third same-seed ring stabilises three more rounds first and
// wires them too, since stabilisation draws nothing from the stream.
func TestRewireOwnStream(t *testing.T) {
	quiet, _, _ := carryRing(t, 32, false, nil)
	for _, n := range quiet {
		if err := n.Rewire(bg); err != nil {
			t.Fatal(err)
		}
	}
	busy, _, _ := carryRing(t, 32, false, nil)
	streams := make([]*lockedRand, len(busy))
	for i, n := range busy {
		streams[i] = &lockedRand{r: n.rnd.Split()}
	}
	stop := make(chan struct{})
	drawn := make(chan int, 1)
	go func() {
		draws := 0
		for {
			select {
			case <-stop:
				drawn <- draws
				return
			default:
			}
			for _, n := range busy {
				n.rnd.Intn(8)
				draws++
			}
		}
	}()
	for i, n := range busy {
		if err := n.rewire(bg, streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if draws := <-drawn; draws == 0 {
		t.Fatal("no draw from the nodes' streams while the passes ran")
	}
	want := linkLines(quiet)
	if got := linkLines(busy); got != want {
		t.Errorf("draws from the nodes' streams moved the links:\ngot:\n%s\nwant:\n%s", got, want)
	}

	stabilised, _, _ := carryRing(t, 32, false, nil)
	for range 3 {
		for _, n := range stabilised {
			n.Stabilize(bg)
		}
	}
	for _, n := range stabilised {
		if err := n.Rewire(bg); err != nil {
			t.Fatal(err)
		}
	}
	if got := linkLines(stabilised); got != want {
		t.Errorf("three more stabilisation rounds moved the links:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRewireGolden pins the live construction: three same-seed boots
// wire the same long links with the same messages, and those match the
// committed record (rewritten instead with -update).
func TestRewireGolden(t *testing.T) {
	var runs [3]string
	for i := range runs {
		runs[i] = rewireRecord(t)
	}
	if runs[1] != runs[0] || runs[2] != runs[0] {
		t.Fatalf("three same-seed boots disagree:\n%s\n%s\n%s", runs[0], runs[1], runs[2])
	}
	if *update {
		if err := os.WriteFile(rewireGoldenFile, []byte(runs[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(rewireGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] != string(want) {
		t.Errorf("rewire record differs from %s:\ngot:\n%s\nwant:\n%s", rewireGoldenFile, runs[0], want)
	}
}
