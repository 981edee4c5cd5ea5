package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lcs"
	"repro/internal/topology"
)

// TestQuickGeneralPartitionsRoute exercises the Appendix A router on
// least-constrained partitions (arbitrary per-leaf node counts, arbitrary S
// sets — the shapes Jigsaw's whole-leaf restriction deliberately skips).
// Every legal partition must still route every permutation contention-free.
func TestQuickGeneralPartitionsRoute(t *testing.T) {
	tree := topology.MustNew(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := lcs.NewAllocator(tree)
		// Fragment the machine so general three-level shapes appear.
		for j := 1; j <= rng.Intn(20); j++ {
			a.Allocate(topology.JobID(j), 1+rng.Intn(10))
		}
		size := 10 + rng.Intn(50)
		p, ok := a.FindJobPartition(999, size)
		if !ok {
			return true
		}
		if err := p.Verify(tree); err != nil {
			t.Logf("seed %d: illegal LC+S partition: %v", seed, err)
			return false
		}
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(size)
			routes, err := RoutePermutation(tree, p, perm)
			if err != nil {
				t.Logf("seed %d size %d: %v", seed, size, err)
				return false
			}
			if err := VerifyRoutes(tree, p, routes); err != nil {
				t.Logf("seed %d size %d: %v", seed, size, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestWraparoundOnGeneralPartition drives the PartitionRouter over a
// least-constrained multi-tree partition with a remainder leaf.
func TestWraparoundOnGeneralPartition(t *testing.T) {
	tree := topology.MustNew(8)
	a := lcs.NewAllocator(tree)
	// One node busy on every leaf: forces general (non-whole-leaf) shapes.
	id := topology.JobID(1)
	for i := 0; i < tree.Leaves(); i++ {
		if _, ok := a.Allocate(id, 1); !ok {
			t.Fatal("setup failed")
		}
		id++
	}
	p, ok := a.FindJobPartition(id, 29)
	if !ok {
		t.Fatal("no general partition found")
	}
	if !p.MultiTree() {
		t.Skip("allocator found a single-tree shape; nothing multi-tree to test")
	}
	pr := NewPartitionRouter(tree, p)
	nodes := PartitionNodes(tree, p)
	for _, s := range nodes {
		for _, d := range nodes {
			if s == d {
				continue
			}
			r, err := pr.Route(s, d)
			if err != nil {
				t.Fatalf("route %d->%d: %v", s, d, err)
			}
			if !pr.Inside(r) {
				t.Fatalf("route %d->%d left the partition", s, d)
			}
		}
	}
}
