package oscar

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The restart-durability contract: a durable node crashed mid-WAL and
// restarted on the same data directory loses zero acked writes, keeps
// every delete deleted (including deletes issued while it was down), and
// rejoins by pulling only the downtime delta from its successor — never
// the full arc it already holds.

const restartReplicas = 3

// durableNodeConfig is the per-node config of the restart scenarios:
// evenly spaced keys, r=3, and a private data directory per ring slot.
// Restarting slot i means calling StartNode with this config again.
func durableNodeConfig(dir string, i, size int, fsync string) NodeConfig {
	return NodeConfig{
		Listen: "127.0.0.1:0",
		Key:    KeyFromFloat(float64(i)/float64(size) + 0.013),
		MaxIn:  8, MaxOut: 8,
		Replicas: restartReplicas,
		Seed:     int64(i),
		DataDir:  filepath.Join(dir, fmt.Sprintf("node-%d", i)),
		Fsync:    fsync,
	}
}

// crashNode kills a node the way a SIGKILL would reach its storage: the
// transport drops and no final snapshot or clean marker is written, so
// the next start from the same directory takes the crash-recovery path.
// The public wrapper is marked closed so stabilisation loops skip it.
func crashNode(n *Node) {
	n.mu.Lock()
	n.closed = true
	m := n.maint
	n.maint = nil
	n.mu.Unlock()
	if m != nil {
		m.Stop()
	}
	_ = n.inner.Close()
}

// settleRing stabilises every open node until the first open node's ring
// walk reports exactly want peers, then runs one extra full pass: the walk
// counts successor pointers, which converge a round before predecessor
// pointers do (a node clears its dead pred after its own predecessor's
// notify for that round already passed), and a cleared pred slot rejects
// writes for the inherited arc until the next notify re-offers it.
func settleRing(t *testing.T, nodes []*Node, want int) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	pass := func() *Node {
		var cl *Node
		for _, n := range nodes {
			if n != nil && !n.isClosed() {
				if cl == nil {
					cl = n
				}
				n.Stabilize(ctx)
			}
		}
		return cl
	}
	for {
		cl := pass()
		if cl == nil {
			t.Fatal("no open node left to settle")
		}
		info, err := cl.Info(ctx)
		if err == nil && info.Peers == want {
			pass()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never settled at %d peers (last: %d, err %v)", want, info.Peers, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartDurability is the acceptance scenario of the durable engine,
// on the TCP backend under the race detector: write under load with a
// data dir, crash the owner mid-WAL, restart it on the same directory,
// and assert zero acked writes lost, deletes preserved, and only the
// downtime delta re-shipped on rejoin.
func TestRestartDurability(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const size = 8
	nodes := make([]*Node, size)
	for i := range nodes {
		n, err := StartNode(durableNodeConfig(dir, i, size, "always"))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := n.Join(ctx, nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	settleRing(t, nodes, size)

	client, victim := nodes[0], nodes[5]
	arcKey := func(off uint64) Key { return victim.Key() - Key(off) }
	if res, err := client.Lookup(ctx, arcKey(1)); err != nil || res.Owner.Addr != victim.Addr() {
		t.Fatalf("arc key not owned by the victim (owner %v, err %v)", res.Owner, err)
	}

	// acked tracks every write the client got an acknowledgement for —
	// the set the restart must preserve bit for bit.
	acked := map[Key][]byte{}
	var ackedMu sync.Mutex
	put := func(k Key, v []byte) {
		t.Helper()
		if _, err := client.Put(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}

	// Pre-crash state: a dozen keys on the victim's arc, a spread of keys
	// across the rest of the ring, and two deletes whose tombstones only
	// the victim's WAL fully holds.
	for j := uint64(1); j <= 12; j++ {
		put(arcKey(j), []byte(fmt.Sprintf("pre-%d", j)))
	}
	for j := 0; j < 16; j++ {
		put(KeyFromFloat(float64(j)/16+0.005), []byte(fmt.Sprintf("spread-%d", j)))
	}
	deletedPre := []Key{arcKey(11), arcKey(12)}
	for _, k := range deletedPre {
		if _, err := client.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
		delete(acked, k)
	}

	// Crash under load: writers hammer the victim's arc while it dies, so
	// the WAL tail is hot when the process goes away. Only writes the
	// client saw acked enter the ledger.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				k := arcKey(uint64(100 + w*1000 + j))
				v := []byte(fmt.Sprintf("load-%d-%d", w, j))
				if _, err := client.Put(ctx, k, v); err == nil {
					ackedMu.Lock()
					acked[k] = v
					ackedMu.Unlock()
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	crashNode(victim)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The survivors heal; the arc keeps taking writes while the owner is
	// down — these five keys are the downtime delta the rejoin must pull.
	settleRing(t, nodes, size-1)
	downKeys := make([]Key, 5)
	for d := range downKeys {
		downKeys[d] = arcKey(uint64(5000 + d))
		put(downKeys[d], []byte(fmt.Sprintf("down-%d", d)))
	}
	// ...and one pre-crash key is deleted while its original owner is
	// down: the restarted node still holds it live in its WAL and must
	// not resurrect it.
	downDeleted := arcKey(3)
	waitGet(t, client, downDeleted)
	if _, err := client.Delete(ctx, downDeleted); err != nil {
		t.Fatal(err)
	}
	delete(acked, downDeleted)

	// Restart from the same directory: crash recovery, then rejoin.
	restarted, err := StartNode(durableNodeConfig(dir, 5, size, "always"))
	if err != nil {
		t.Fatal(err)
	}
	rec := restarted.Recovery()
	if !rec.Enabled || rec.Clean {
		t.Fatalf("recovery = %+v, want a crash restart", rec)
	}
	if rec.Items == 0 || rec.ReplayedFrames == 0 {
		t.Fatalf("recovery = %+v, want replayed WAL state", rec)
	}
	if err := restarted.Join(ctx, client.Addr()); err != nil {
		t.Fatal(err)
	}

	// The delta contract: the join migrated exactly the five downtime
	// writes — not the dozens of arc keys the node recovered locally.
	st := restarted.inner.State()
	shippedItems, shippedTombs := st.JoinItems, st.JoinTombs
	if shippedItems != len(downKeys) {
		t.Errorf("join shipped %d items, want exactly the %d-key downtime delta", shippedItems, len(downKeys))
	}
	if shippedTombs < 1 || shippedTombs > 3 {
		t.Errorf("join shipped %d tombstones, want the downtime delete (1..3 with replicated pre-crash tombstones)", shippedTombs)
	}
	nodes[5] = restarted
	settleRing(t, nodes, size)

	// Zero acked writes lost, every delete still a delete.
	deadline := time.Now().Add(20 * time.Second)
	for {
		lost := ""
		for k, v := range acked {
			got, err := client.Get(ctx, k)
			if err != nil {
				lost = fmt.Sprintf("key %v: %v", k, err)
				break
			}
			if !bytes.Equal(got.Value, v) {
				lost = fmt.Sprintf("key %v = %q, want %q", k, got.Value, v)
				break
			}
		}
		if lost == "" {
			for _, k := range append(deletedPre, downDeleted) {
				if _, err := client.Get(ctx, k); !errors.Is(err, ErrNotFound) {
					lost = fmt.Sprintf("deleted key %v resurrected (err %v)", k, err)
					break
				}
			}
		}
		if lost == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after restart: %s", lost)
		}
		time.Sleep(10 * time.Millisecond)
	}

	info, err := restarted.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Durable {
		t.Error("restarted node does not report Durable")
	}
}

// waitGet polls until the key reads successfully — the chain fallback
// needs a moment after an owner crash before promotion completes.
func waitGet(t *testing.T, cl Client, k Key) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := cl.Get(ctx, k); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("key %v never became readable: %v", k, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// restartBackend is one fabric under the delete-survives-restart
// contract: a ring of durable nodes and a way to bring a crashed slot
// back from its data directory.
type restartBackend struct {
	name   string
	nodes  []*Node
	client *Node
	// restart boots the crashed slot's identity again from the same data
	// directory and returns the new node (also recorded in nodes).
	restart func(t *testing.T, slot int) *Node
	close   func()
}

func restartMemBackend(t *testing.T) *restartBackend {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	const size = 10
	c, err := StartCluster(ctx, size, WithSeed(19),
		WithReplicas(restartReplicas),
		WithDataDir(dir),
		WithStabilizeRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	b := &restartBackend{
		name:   "p2p/mem",
		nodes:  c.Nodes(),
		client: c.Node(0),
		close:  func() { _ = c.Close() },
	}
	b.restart = func(t *testing.T, slot int) *Node {
		t.Helper()
		n, err := c.AddNode(ctx, NodeConfig{
			Key:   b.nodes[slot].Key(),
			MaxIn: 16, MaxOut: 16,
			Replicas: restartReplicas,
			Seed:     int64(slot),
			DataDir:  filepath.Join(dir, fmt.Sprintf("node-%d", slot)),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.nodes[slot] = n
		return n
	}
	return b
}

func restartTCPBackend(t *testing.T) *restartBackend {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	const size = 8
	nodes := make([]*Node, size)
	for i := range nodes {
		n, err := StartNode(durableNodeConfig(dir, i, size, "interval"))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := n.Join(ctx, nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = n
	}
	b := &restartBackend{
		name:   "p2p/tcp",
		nodes:  nodes,
		client: nodes[0],
		close: func() {
			for _, n := range nodes {
				_ = n.Close()
			}
		},
	}
	b.restart = func(t *testing.T, slot int) *Node {
		t.Helper()
		n, err := StartNode(durableNodeConfig(dir, slot, size, "interval"))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Join(ctx, b.client.Addr()); err != nil {
			t.Fatal(err)
		}
		b.nodes[slot] = n
		return n
	}
	return b
}

// TestDeleteSurvivesRestart is the tombstone-durability contract on both
// fabrics: delete before the crash, delete during the downtime, restart
// the owner from its data directory, nothing resurrects.
func TestDeleteSurvivesRestart(t *testing.T) {
	backends := []func(*testing.T) *restartBackend{
		restartMemBackend,
		restartTCPBackend,
	}
	for _, mk := range backends {
		b := mk(t)
		t.Run(b.name, func(t *testing.T) {
			defer b.close()
			runDeleteSurvivesRestart(t, b)
		})
	}
}

func runDeleteSurvivesRestart(t *testing.T, b *restartBackend) {
	ctx := context.Background()
	settleRing(t, b.nodes, len(b.nodes))

	// Pick a victim (never the client's node) that owns a small run of
	// keys below its own identifier.
	slot := -1
	for i, n := range b.nodes {
		if i == 0 {
			continue
		}
		res, err := b.client.Lookup(ctx, n.Key()-4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner.Addr == n.Addr() {
			slot = i
			break
		}
	}
	if slot < 0 {
		t.Fatal("no node owns a wide enough arc")
	}
	victim := b.nodes[slot]
	k1, k2, kept := victim.Key()-1, victim.Key()-2, victim.Key()-3

	for _, k := range []Key{k1, k2, kept} {
		if _, err := b.client.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// k1 dies before the crash: its tombstone must ride the WAL through
	// the restart.
	if _, err := b.client.Delete(ctx, k1); err != nil {
		t.Fatal(err)
	}

	crashNode(victim)
	settleRing(t, b.nodes, len(b.nodes)-1)

	// k2 dies while the owner is down: the restarted node still holds it
	// live on disk and must adopt the newer tombstone on rejoin.
	waitGet(t, b.client, k2)
	if _, err := b.client.Delete(ctx, k2); err != nil {
		t.Fatal(err)
	}

	restarted := b.restart(t, slot)
	rec := restarted.Recovery()
	if !rec.Enabled || rec.Clean {
		t.Fatalf("recovery = %+v, want a crash restart", rec)
	}
	if rec.Tombstones == 0 {
		t.Fatalf("recovery = %+v, want the pre-crash tombstone recovered", rec)
	}
	settleRing(t, b.nodes, len(b.nodes))

	deadline := time.Now().Add(20 * time.Second)
	for {
		bad := ""
		for _, k := range []Key{k1, k2} {
			if _, err := b.client.Get(ctx, k); !errors.Is(err, ErrNotFound) {
				bad = fmt.Sprintf("deleted key %v = %v, want ErrNotFound", k, err)
				break
			}
		}
		if bad == "" {
			if got, err := b.client.Get(ctx, kept); err != nil || !bytes.Equal(got.Value, []byte("v")) {
				bad = fmt.Sprintf("surviving key = %q, %v", got.Value, err)
			}
		}
		if bad == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after restart: %s", bad)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
