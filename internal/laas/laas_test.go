package laas

import (
	"testing"

	"repro/internal/topology"
)

func TestRoundsUpToWholeLeaves(t *testing.T) {
	tree := topology.MustNew(8) // 4 nodes per leaf
	a := NewAllocator(tree)
	pl, ok := a.Allocate(1, 5)
	if !ok {
		t.Fatal("allocation failed")
	}
	// 5 nodes round up to 2 leaves = 8 nodes: internal fragmentation.
	if pl.Size() != 8 {
		t.Fatalf("placement size = %d, want 8 (rounded to whole leaves)", pl.Size())
	}
	if a.RoundedSize(5) != 8 || a.RoundedSize(4) != 4 || a.RoundedSize(1) != 4 {
		t.Fatal("RoundedSize wrong")
	}
	if a.FreeNodes() != tree.Nodes()-8 {
		t.Fatalf("free = %d", a.FreeNodes())
	}
	a.Release(pl)
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("release leak")
	}
}

func TestWholeLeavesHaveAllUplinks(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	pl, _ := a.Allocate(1, 4)
	leaves := pl.Leaves(tree)
	if len(leaves) != 1 {
		t.Fatalf("leaves = %v", leaves)
	}
	if got := a.State().LeafUpMask(leaves[0], 1); got != 0 {
		t.Fatal("LaaS leaf must own all its uplinks")
	}
}

func TestInternalFragmentationBlocksSmallJobs(t *testing.T) {
	tree := topology.MustNew(4) // 2 nodes/leaf, 2 leaves/pod, 4 pods: 16 nodes
	a := NewAllocator(tree)
	// Eight 1-node jobs each take a whole 2-node leaf; the machine is
	// "full" at 50% real utilization.
	for j := 1; j <= tree.Leaves(); j++ {
		if _, ok := a.Allocate(topology.JobID(j), 1); !ok {
			t.Fatalf("job %d failed", j)
		}
	}
	if a.FreeNodes() != 0 {
		t.Fatalf("free = %d, want 0 (all leaves consumed)", a.FreeNodes())
	}
	if _, ok := a.Allocate(99, 1); ok {
		t.Fatal("machine should be exhausted by rounding")
	}
}

func TestMultiPodAllocation(t *testing.T) {
	tree := topology.MustNew(8) // 16 nodes/pod
	a := NewAllocator(tree)
	pl, ok := a.Allocate(1, 40) // 10 leaves: must span pods
	if !ok {
		t.Fatal("multi-pod allocation failed")
	}
	if pl.Size() != 40 {
		t.Fatalf("size = %d", pl.Size())
	}
	pods := map[int]bool{}
	for _, l := range pl.Leaves(tree) {
		pods[tree.LeafPod(l)] = true
	}
	if len(pods) < 3 {
		t.Fatalf("expected >= 3 pods, got %d", len(pods))
	}
}

func TestWholeMachine(t *testing.T) {
	tree := topology.MustNew(6)
	a := NewAllocator(tree)
	if _, ok := a.Allocate(1, tree.Nodes()); !ok {
		t.Fatal("whole machine should fit")
	}
	if a.FreeNodes() != 0 {
		t.Fatal("machine should be full")
	}
}
