package p2p

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/oscar-overlay/oscar/internal/transport"
)

// rewireGoldenFile holds the record of one rewire pass over a 32-node
// evenly spaced ring: every node's out-links, then the messages the ring
// sent by op. The construction is deterministic per seed, so a change that
// moves one link or one message changes the live construction.
const rewireGoldenFile = "testdata/rewire_golden.txt"

// rewireRecord boots a 32-node evenly spaced ring with the route cache
// off and no boot rewire, rewires every node once in ring order and
// returns the record: one line per node listing its out-links by node
// index, in link order, then one line of sent messages by op.
func rewireRecord(t *testing.T) string {
	t.Helper()
	const size = 32
	nodes, trs, _ := carryRing(t, size, false, nil)
	for _, n := range nodes {
		if err := n.Rewire(bg); err != nil {
			t.Fatal(err)
		}
	}
	index := make(map[transport.Addr]int, size)
	for i, n := range nodes {
		index[n.Self().Addr] = i
	}
	var b strings.Builder
	for i, n := range nodes {
		fmt.Fprintf(&b, "node %02d:", i)
		for _, ref := range n.OutLinks() {
			fmt.Fprintf(&b, " %02d", index[ref.Addr])
		}
		b.WriteByte('\n')
	}
	sent := make(map[transport.Op]int)
	for _, tr := range trs {
		tr.mu.Lock()
		for op, c := range tr.sent {
			sent[op] += c
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

// TestRewireGolden pins the live construction: three same-seed boots
// wire the same long links with the same messages, and those match the
// committed record.
func TestRewireGolden(t *testing.T) {
	var runs [3]string
	for i := range runs {
		runs[i] = rewireRecord(t)
	}
	if runs[1] != runs[0] || runs[2] != runs[0] {
		t.Fatalf("three same-seed boots disagree:\n%s\n%s\n%s", runs[0], runs[1], runs[2])
	}
	want, err := os.ReadFile(rewireGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] != string(want) {
		t.Errorf("rewire record differs from %s:\ngot:\n%s\nwant:\n%s", rewireGoldenFile, runs[0], want)
	}
}
