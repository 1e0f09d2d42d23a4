package p2p

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// walkGoldenFile holds the record of every live node's walks over a
// rewired 32-node ring with crashed peers that nobody has stabilised
// around: each op's owner, cost and error, then the messages the ring sent
// by op. A change that moves one hop, one probe or one carried op changes
// the live walk.
const walkGoldenFile = "testdata/walk_golden.txt"

// walkCrashed are the crashed nodes: 9 and 10 are adjacent, and 10 owns
// one of walkKeys.
var walkCrashed = []int{9, 10, 17, 24}

// walkKeys are the keys every live node looks up, writes and reads, as
// fractions of the circle (node i sits at i/32 and owns ((i-1)/32, i/32]):
// one owned by a live node among live ones, one by crashed node 10, one
// behind crashed node 17's long links, and one owned by a live node two
// hops past crashed node 24.
var walkKeys = []float64{3.3 / 32, 9.5 / 32, 20.5 / 32, 25.5 / 32}

// walkRecord boots a 32-node evenly spaced ring with the route cache off,
// rewires it once, crashes walkCrashed without stabilising, then runs
// Lookup, Put and Get on walkKeys from every live node in ring order. It
// returns one line per op — the owner by node index ("--" for none), the
// cost and the error — then the ring's sent messages by op, all and
// carried.
func walkRecord(t *testing.T) string {
	t.Helper()
	const size = 32
	nodes, trs, _ := carryRing(t, size, true, nil)
	for _, i := range walkCrashed {
		_ = nodes[i].Close()
	}
	index := make(map[transport.Addr]int, size)
	for i, n := range nodes {
		index[n.Self().Addr] = i
	}
	var b strings.Builder
	line := func(from int, op string, k keyspace.Key, owner transport.PeerRef, cost int, err error) {
		who := "--"
		if i, ok := index[owner.Addr]; ok && owner.Addr != "" {
			who = fmt.Sprintf("%02d", i)
		}
		fmt.Fprintf(&b, "%02d %-6s %016x owner=%s cost=%d err=%v\n", from, op, uint64(k), who, cost, err)
	}
	for i, n := range nodes {
		if slices.Contains(walkCrashed, i) {
			continue
		}
		for _, f := range walkKeys {
			k := keyspace.FromFloat(f)
			owner, cost, err := n.Lookup(bg, k)
			line(i, "lookup", k, owner, cost, err)
			res, err := n.Put(bg, k, []byte("v"))
			line(i, "put", k, res.Owner, res.Cost, err)
			res, err = n.Get(bg, k)
			line(i, "get", k, res.Owner, res.Cost, err)
		}
	}
	sent := make(map[transport.Op]int)
	carried := make(map[transport.Op]int)
	for _, tr := range trs {
		tr.mu.Lock()
		for op, c := range tr.sent {
			sent[op] += c
		}
		for op, c := range tr.sentCarry {
			carried[op] += c
		}
		tr.mu.Unlock()
	}
	for _, row := range []struct {
		name   string
		counts map[transport.Op]int
	}{{"sent", sent}, {"sentCarry", carried}} {
		ops := make([]string, 0, len(row.counts))
		for op := range row.counts {
			ops = append(ops, string(op))
		}
		slices.Sort(ops)
		b.WriteString(row.name + ":")
		for _, op := range ops {
			fmt.Fprintf(&b, " %s=%d", op, row.counts[transport.Op(op)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWalkGolden pins the live walk: three same-seed runs route, probe,
// backtrack and carry ops the same way, and match the committed record.
// Walks toward the crashed owners' arcs end in ErrNoRoute at the owner's
// live predecessor, which answers "no route" once its dead successor is
// excluded (ROADMAP item 9).
func TestWalkGolden(t *testing.T) {
	var runs [3]string
	t.Run("runs", func(t *testing.T) {
		for i := range runs {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel() // a walk that meets a dead peer waits out its read retries
				runs[i] = walkRecord(t)
			})
		}
	})
	if runs[1] != runs[0] || runs[2] != runs[0] {
		t.Fatalf("three same-seed runs disagree:\n%s\n%s\n%s", runs[0], runs[1], runs[2])
	}
	want, err := os.ReadFile(walkGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] != string(want) {
		t.Errorf("walk record differs from %s:\ngot:\n%s\nwant:\n%s", walkGoldenFile, runs[0], want)
	}
}
