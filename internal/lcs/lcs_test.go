package lcs

import (
	"testing"

	"repro/internal/topology"
)

func TestDemandClassesDeterministic(t *testing.T) {
	seen := map[int32]bool{}
	for j := topology.JobID(1); j <= 200; j++ {
		d := DemandFor(j)
		if d != DemandFor(j) {
			t.Fatal("demand not deterministic")
		}
		switch d {
		case 5, 10, 15, 20:
			seen[d] = true
		default:
			t.Fatalf("unexpected demand %d", d)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("expected all four classes over 200 jobs, saw %d", len(seen))
	}
}

func TestLinkSharingAdmitsMoreJobs(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	// Many jobs can share the same leaf uplinks because demands sum below
	// LinkCapacity. Fill the machine completely with 3-node jobs (which
	// Jigsaw could also do), then verify links were shared rather than
	// exhausted.
	placed := 0
	for j := 1; placed+3 <= tree.Nodes(); j++ {
		if _, ok := a.Allocate(topology.JobID(j), 3); !ok {
			break
		}
		placed += 3
	}
	if tree.Nodes()-placed >= 3 {
		t.Fatalf("LC+S should pack 3-node jobs to near-full, placed only %d of %d", placed, tree.Nodes())
	}
}

func TestAllSizesOnEmptyMachine(t *testing.T) {
	tree := topology.MustNew(6)
	for size := 1; size <= tree.Nodes(); size++ {
		a := NewAllocator(tree)
		pl, ok := a.Allocate(topology.JobID(size), size)
		if !ok {
			t.Fatalf("size %d failed on empty machine", size)
		}
		if pl.Size() != size {
			t.Fatalf("size %d: placement has %d nodes", size, pl.Size())
		}
	}
}

func TestBandwidthCapEnforced(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	// Saturate one leaf's uplink capacity and verify residuals never go
	// negative (State panics on over-allocation).
	var pls []*topology.Placement
	for j := 1; j <= 400; j++ {
		pl, ok := a.Allocate(topology.JobID(j), 2)
		if !ok {
			break
		}
		pls = append(pls, pl)
	}
	for _, pl := range pls {
		a.Release(pl)
	}
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("release leak")
	}
	for l := 0; l < tree.Leaves(); l++ {
		for i := 0; i < tree.L2PerPod; i++ {
			if a.State().LeafUpResidual(l, i) != LinkCapacity {
				t.Fatal("bandwidth leak")
			}
		}
	}
}

func TestGeneralThreeLevelPlacement(t *testing.T) {
	tree := topology.MustNew(8) // 16 nodes/pod
	a := NewAllocator(tree)
	// Occupy one node on every leaf so no pod has 16 free and leaves are
	// never fully free: Jigsaw's whole-leaf three-level pass would fail,
	// but LC+S's general pass may still place a 30-node job across pods.
	id := topology.JobID(1)
	for i := 0; i < tree.Leaves(); i++ {
		if _, ok := a.Allocate(id, 1); !ok {
			t.Fatal("setup failed")
		}
		id++
	}
	pl, ok := a.Allocate(id, 30)
	if !ok {
		t.Fatal("LC+S general placement should succeed")
	}
	if pl.Size() != 30 {
		t.Fatalf("size = %d", pl.Size())
	}
}

func TestBudgetExhaustionFailsCleanly(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	a.budget = 1
	free := a.FreeNodes()
	if _, ok := a.Allocate(1, 30); ok {
		t.Fatal("budget 1 should not find a multi-pod placement")
	}
	if a.FreeNodes() != free {
		t.Fatal("failed allocation must not mutate state")
	}
}

func TestCloneIndependence(t *testing.T) {
	tree := topology.MustNew(6)
	a := NewAllocator(tree)
	c := a.Clone()
	c.Allocate(1, 5)
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("clone leaked")
	}
}
