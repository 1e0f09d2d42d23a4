package graph

import (
	"errors"
	"testing"

	"github.com/oscar-overlay/oscar/internal/sampling"
)

func TestAddAndAccounting(t *testing.T) {
	g := New()
	a := g.Add(100, 2, 3)
	b := g.Add(200, 2, 3)
	if a.ID == b.ID {
		t.Fatal("ids must be unique")
	}
	if g.Len() != 2 || g.AliveCount() != 2 {
		t.Fatalf("Len=%d Alive=%d", g.Len(), g.AliveCount())
	}
	if err := g.AddLink(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if b.InDeg() != 1 || !a.HasOut(b.ID) {
		t.Error("link not recorded")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddLinkRejections(t *testing.T) {
	g := New()
	a := g.Add(1, 1, 5)
	b := g.Add(2, 1, 5)
	c := g.Add(3, 1, 5)
	if err := g.AddLink(a.ID, a.ID); !errors.Is(err, ErrSelfLink) {
		t.Errorf("self link: %v", err)
	}
	if err := g.AddLink(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(a.ID, b.ID); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
	// b is at its cap (MaxIn=1): c must be refused.
	if err := g.AddLink(c.ID, b.ID); !errors.Is(err, ErrRefused) {
		t.Errorf("refusal: %v", err)
	}
	g.Kill(c.ID)
	if err := g.AddLink(a.ID, c.ID); !errors.Is(err, ErrDead) {
		t.Errorf("dead target: %v", err)
	}
	if err := g.AddLink(c.ID, a.ID); !errors.Is(err, ErrDead) {
		t.Errorf("dead source: %v", err)
	}
}

// TestInLoad: a node's load counts its in-links against its cap, and a
// node with no in-degree cap is full.
func TestInLoad(t *testing.T) {
	g := New()
	a := g.Add(1, 4, 0)
	b := g.Add(2, 0, 4)
	if a.Load().Rel() != 0 {
		t.Error("fresh node should have zero load")
	}
	if err := g.AddLink(b.ID, a.ID); err != nil {
		t.Fatal(err)
	}
	if got := a.Load(); got != (sampling.Load{In: 1, Max: 4}) || got.Rel() != 0.25 {
		t.Errorf("load = %+v", got)
	}
	if b.Load().Rel() != 1 {
		t.Error("MaxIn=0 peer must report full load")
	}
}

func TestDropLinks(t *testing.T) {
	g := New()
	a := g.Add(1, 5, 5)
	b := g.Add(2, 5, 5)
	c := g.Add(3, 5, 5)
	mustLink(t, g, a.ID, b.ID)
	mustLink(t, g, a.ID, c.ID)
	g.DropLinks(a.ID)
	if len(a.Out) != 0 || b.InDeg() != 0 || c.InDeg() != 0 {
		t.Error("DropLinks must release in-degree at targets")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestKillReleasesInDegreeAtTargets(t *testing.T) {
	g := New()
	a := g.Add(1, 5, 5)
	b := g.Add(2, 5, 5)
	mustLink(t, g, a.ID, b.ID)
	g.Kill(a.ID)
	if b.InDeg() != 0 {
		t.Error("killing the source must release the target's in-degree")
	}
	if g.AliveCount() != 1 {
		t.Errorf("alive = %d", g.AliveCount())
	}
	g.Kill(a.ID) // idempotent
	if g.AliveCount() != 1 {
		t.Error("double kill must be a no-op")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestKillKeepsStaleLinksToDeadPeer(t *testing.T) {
	g := New()
	a := g.Add(1, 5, 5)
	b := g.Add(2, 5, 5)
	mustLink(t, g, a.ID, b.ID)
	g.Kill(b.ID)
	if !a.HasOut(b.ID) {
		t.Error("links to a dead peer must remain (stale) for the churn model")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Dropping later still keeps accounting consistent.
	g.DropLinks(a.ID)
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestForEachAliveAndIDs(t *testing.T) {
	g := New()
	a := g.Add(1, 1, 1)
	b := g.Add(2, 1, 1)
	g.Add(3, 1, 1)
	g.Kill(b.ID)
	var seen []NodeID
	g.ForEachAlive(func(n *Node) { seen = append(seen, n.ID) })
	if len(seen) != 2 || seen[0] != a.ID {
		t.Errorf("ForEachAlive visited %v", seen)
	}
	ids := g.AliveIDs()
	if len(ids) != 2 {
		t.Errorf("AliveIDs = %v", ids)
	}
}

func TestNodePanicsOnBadID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid id must panic")
		}
	}()
	New().Node(3)
}

func mustLink(t *testing.T, g *Network, from, to NodeID) {
	t.Helper()
	if err := g.AddLink(from, to); err != nil {
		t.Fatalf("AddLink(%d,%d): %v", from, to, err)
	}
}
