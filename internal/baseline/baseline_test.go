package baseline

import (
	"testing"

	"repro/internal/topology"
)

func TestAllocateAnyFreeNodes(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	pl, ok := a.Allocate(1, 100)
	if !ok || pl.Size() != 100 {
		t.Fatal("baseline should place any size that fits")
	}
	if a.FreeNodes() != tree.Nodes()-100 {
		t.Fatalf("free = %d", a.FreeNodes())
	}
	// Baseline packs fragmented nodes: free 1 node per leaf by releasing
	// and re-allocating odd shapes, then ask for exactly the free count.
	pl2, ok := a.Allocate(2, a.FreeNodes())
	if !ok {
		t.Fatal("baseline should always pack all free nodes")
	}
	a.Release(pl)
	a.Release(pl2)
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("release leak")
	}
}

func TestAllocateFailsWhenFull(t *testing.T) {
	tree := topology.MustNew(4)
	a := NewAllocator(tree)
	if _, ok := a.Allocate(1, tree.Nodes()); !ok {
		t.Fatal("whole machine should fit")
	}
	if _, ok := a.Allocate(2, 1); ok {
		t.Fatal("no nodes left")
	}
}

func TestNoLinksCharged(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	a.Allocate(1, tree.Nodes())
	// All uplinks remain free: baseline shares the network.
	for l := 0; l < tree.Leaves(); l++ {
		if got := a.State().LeafUpMask(l, 1); got != uint64(1)<<tree.L2PerPod-1 {
			t.Fatal("baseline must not allocate links")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tree := topology.MustNew(4)
	a := NewAllocator(tree)
	c := a.Clone()
	c.Allocate(1, 4)
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("clone leaked")
	}
}
