package ta

import (
	"testing"

	"repro/internal/topology"
)

func TestLeafLevelJobMustFitOneLeaf(t *testing.T) {
	tree := topology.MustNew(8) // 4 nodes per leaf
	a := NewAllocator(tree)
	// Occupy 3 nodes on every leaf with leaf-level jobs (first-fit leaves
	// one free node per leaf).
	id := topology.JobID(1)
	for i := 0; i < tree.Leaves(); i++ {
		if _, ok := a.Allocate(id, 3); !ok {
			t.Fatal("setup failed")
		}
		id++
	}
	// External fragmentation (Figure 2 right): plenty of free nodes, but no
	// leaf has 2, so a 2-node job cannot be placed.
	if _, ok := a.Allocate(id, 2); ok {
		t.Fatal("TA must reject a leaf-level job that fits no single leaf")
	}
	if a.FreeNodes() != tree.Leaves() {
		t.Fatalf("free = %d", a.FreeNodes())
	}
}

func TestLeafLevelJobsShareLeaves(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	p1, ok1 := a.Allocate(1, 2)
	p2, ok2 := a.Allocate(2, 2)
	if !ok1 || !ok2 {
		t.Fatal("allocation failed")
	}
	if p1.Leaves(tree)[0] != p2.Leaves(tree)[0] {
		t.Fatal("two 2-node jobs should pack into the first leaf")
	}
}

func TestPodLevelJobOwnsLeafUplinks(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	pl, ok := a.Allocate(1, 6) // > 4 nodes: pod-level, spans 2 leaves
	if !ok {
		t.Fatal("allocation failed")
	}
	leaves := pl.Leaves(tree)
	if len(leaves) != 2 {
		t.Fatalf("expected 2 leaves, got %d", len(leaves))
	}
	for _, l := range leaves {
		if a.State().LeafUpMask(l, 1) != 0 {
			t.Fatal("pod-level job must own every uplink of its leaves (internal link fragmentation)")
		}
	}
	// Another pod-level job cannot reuse those leaves even though the
	// second one has 2 free nodes.
	pl2, ok := a.Allocate(2, 6)
	if !ok {
		t.Fatal("second job should fit elsewhere")
	}
	for _, l := range pl2.Leaves(tree) {
		for _, l1 := range leaves {
			if l == l1 {
				t.Fatal("multi-leaf jobs must not share a leaf")
			}
		}
	}
	// A leaf-level job must also avoid the owned leaves: the pod-level
	// job's implicit reservation covers the leaf switches themselves.
	pl3, ok := a.Allocate(3, 2)
	if !ok {
		t.Fatal("leaf-level job should fit elsewhere")
	}
	for _, l := range pl3.Leaves(tree) {
		for _, owned := range leaves {
			if l == owned {
				t.Fatal("leaf-level job must not share a leaf switch owned by a multi-leaf job")
			}
		}
	}
}

func TestPodLevelJobMustFitOnePod(t *testing.T) {
	tree := topology.MustNew(8) // 16 nodes/pod
	a := NewAllocator(tree)
	// Claim 12 nodes of every pod with pod-level jobs.
	for p := 0; p < tree.Pods; p++ {
		if _, ok := a.Allocate(topology.JobID(p+1), 12); !ok {
			t.Fatalf("setup pod %d failed", p)
		}
	}
	// 8 free nodes exist in total... but not within eligible leaves of one
	// pod: each pod has one untouched leaf (4 nodes).
	if _, ok := a.Allocate(100, 8); ok {
		t.Fatal("pod-level job must be rejected when no single pod can host it")
	}
	if _, ok := a.Allocate(101, 4); !ok {
		t.Fatal("a 4-node job fits the untouched leaf")
	}
}

func TestMachineLevelJobOwnsPods(t *testing.T) {
	tree := topology.MustNew(8) // 16 nodes/pod, 8 pods
	a := NewAllocator(tree)
	pl, ok := a.Allocate(1, 20) // machine-level: spans 2 pods
	if !ok {
		t.Fatal("allocation failed")
	}
	pods := map[int]bool{}
	for _, l := range pl.Leaves(tree) {
		pods[tree.LeafPod(l)] = true
	}
	if len(pods) != 2 {
		t.Fatalf("expected 2 pods, got %d", len(pods))
	}
	for p := range pods {
		if a.podOwnable(p) {
			t.Fatal("machine-level job must own its pods' spine uplinks")
		}
	}
	// A second machine-level job must avoid those pods.
	pl2, ok := a.Allocate(2, 20)
	if !ok {
		t.Fatal("second machine job should fit in other pods")
	}
	for _, l := range pl2.Leaves(tree) {
		if pods[tree.LeafPod(l)] {
			t.Fatal("machine-level jobs must not share pods")
		}
	}
}

func TestReleaseRestoresEverything(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	var pls []*topology.Placement
	for j, size := range []int{3, 6, 20, 1, 16} {
		pl, ok := a.Allocate(topology.JobID(j+1), size)
		if !ok {
			t.Fatalf("allocation %d failed", j)
		}
		pls = append(pls, pl)
	}
	for _, pl := range pls {
		a.Release(pl)
	}
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("node leak")
	}
	for l := 0; l < tree.Leaves(); l++ {
		if !a.leafOwnable(l) {
			t.Fatal("leaf uplink leak")
		}
	}
	for p := 0; p < tree.Pods; p++ {
		if !a.podOwnable(p) {
			t.Fatal("spine uplink leak")
		}
	}
}

func TestWholeMachineJob(t *testing.T) {
	tree := topology.MustNew(6)
	a := NewAllocator(tree)
	if _, ok := a.Allocate(1, tree.Nodes()); !ok {
		t.Fatal("whole machine should fit")
	}
	if a.FreeNodes() != 0 {
		t.Fatal("machine should be full")
	}
}
