package p2p

import (
	"context"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// TestMaintenanceHealsRing lets the background loop (rather than manual
// Stabilize calls) repair pointers after a crash.
func TestMaintenanceHealsRing(t *testing.T) {
	fabric := transport.NewFabric()
	var nodes []*Node
	for i := 0; i < 8; i++ {
		n := mustNode(t, fabric.Endpoint(), Config{
			Key: keyspace.FromFloat(float64(i) / 8), MaxIn: 8, MaxOut: 8, Seed: int64(i),
		})
		if i > 0 {
			if err := n.Join(context.Background(), nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	var maints []*Maintenance
	for _, n := range nodes {
		maints = append(maints, n.StartMaintenance(5*time.Millisecond, 0))
	}
	defer func() {
		for _, m := range maints {
			m.Stop()
		}
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	// Crash a node; the loops must route around it without manual help.
	_ = nodes[3].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err := nodes[0].Lookup(context.Background(), keyspace.FromFloat(0.99))
		if err == nil {
			// Also confirm the corpse is out of the pointer chain.
			healed := true
			for i, n := range nodes {
				if i == 3 {
					continue
				}
				if st := n.State(); st.Succ().Addr == nodes[3].Self().Addr || st.Pred.Addr == nodes[3].Self().Addr {
					healed = false
				}
			}
			if healed {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("maintenance loop did not heal the ring in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaintenanceRunsAntiEntropy lets the background anti-entropy ticker
// (rather than a manual AntiEntropy call) repair a diverged replica.
func TestMaintenanceRunsAntiEntropy(t *testing.T) {
	fabric := transport.NewFabric()
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n := mustNode(t, fabric.Endpoint(), Config{
			Key: keyspace.FromFloat(float64(i)/4 + 0.1), Replicas: 2,
			AntiEntropy: 10 * time.Millisecond, Seed: int64(i),
		})
		if i > 0 {
			if err := n.Join(context.Background(), nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	for round := 0; round < 4; round++ {
		for _, n := range nodes {
			n.Stabilize(context.Background())
		}
	}
	owner := nodes[1] // key 0.35
	k := owner.Self().Key - 5
	if _, err := nodes[0].Put(context.Background(), k, []byte("copy")); err != nil {
		t.Fatal(err)
	}
	replica := nodeByAddr(t, nodes, owner.State().Succs[0].Addr)
	if !replica.KeyState(k).HasReplica {
		t.Fatal("write push did not reach the replica")
	}
	replica.DropReplica(k)

	var maints []*Maintenance
	for _, n := range nodes {
		maints = append(maints, n.StartMaintenance(5*time.Millisecond, 0))
	}
	defer func() {
		for _, m := range maints {
			m.Stop()
		}
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if ks := replica.KeyState(k); ks.HasReplica && string(ks.Replica) == "copy" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background anti-entropy did not repair the replica in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMaintenanceStopIdempotent(t *testing.T) {
	fabric := transport.NewFabric()
	n := mustNode(t, fabric.Endpoint(), Config{Key: 1})
	m := n.StartMaintenance(time.Millisecond, 1)
	time.Sleep(5 * time.Millisecond)
	m.Stop()
	m.Stop() // second stop must not panic or deadlock
	_ = n.Close()
}
