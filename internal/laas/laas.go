// Package laas implements the Links-as-a-Service (LaaS) comparison scheme
// (Zahavi et al., ANCS 2016; Section 5.2.1 of the Jigsaw paper). LaaS
// allocates dedicated links like Jigsaw but reduces the three-level problem
// to two levels by allocating whole leaves: entire leaves take the place of
// nodes, L2 switches the place of leaves, and spines the place of L2
// switches. Job sizes are therefore rounded up to the nearest multiple of
// the leaf size, causing the internal node fragmentation of Figure 2 (left):
// rounded-up nodes are charged to the job but do no work.
package laas

import (
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/topology"
)

// Allocator implements alloc.Allocator at whole-leaf granularity.
type Allocator struct {
	alloc.Base
	budget int

	// scratch backs the allocator's searches; Clone deliberately gives the
	// clone a fresh zero Scratch (a Scratch must never be shared).
	scratch core.Scratch
}

// NewAllocator returns a LaaS allocator for a pristine tree.
func NewAllocator(tree *topology.FatTree) *Allocator {
	return &Allocator{Base: alloc.NewBase(topology.NewState(tree, 1)), budget: core.DefaultSearchBudget}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "LaaS" }

// Clone implements alloc.Allocator.
func (a *Allocator) Clone() alloc.Allocator {
	return &Allocator{Base: alloc.NewBase(a.State().Clone()), budget: a.budget}
}

// Allocate implements alloc.Allocator. The placement holds every node of
// every allocated leaf — ceil(size/NodesPerLeaf)*NodesPerLeaf of them —
// even though the job uses only size; the surplus is LaaS's internal
// fragmentation and is what depresses its utilization in the paper.
func (a *Allocator) Allocate(job topology.JobID, size int) (*topology.Placement, bool) {
	st := a.State()
	t := st.Tree
	if size < 1 {
		return nil, false
	}
	leaves := (size + t.NodesPerLeaf - 1) / t.NodesPerLeaf
	if leaves > t.Leaves() || leaves*t.NodesPerLeaf > st.FreeNodes() {
		return nil, false
	}

	// One step budget covers the whole allocation attempt, shared across
	// both passes and every factorization, mirroring core.Search's
	// whole-search budget contract.
	steps := a.budget

	// Single-subtree allocations first, exactly as in Jigsaw's search but
	// at whole-leaf granularity. A whole-leaf allocation needs `leaves`
	// untouched leaves in one pod, so pods below that count (tracked by the
	// state's per-pod index) are skipped without a search.
	if leaves <= t.LeavesPerPod {
		for pod := 0; pod < t.Pods; pod++ {
			if st.FullyFreeLeavesInPod(pod) < leaves {
				continue
			}
			if p, ok := core.FindTwoLevel(st, 1, pod, leaves, t.NodesPerLeaf, 0, &steps, &a.scratch); ok {
				pl := p.Placement(t, job, 1)
				pl.Apply(st)
				return pl, true
			}
		}
	}

	// Multi-subtree: distribute whole leaves evenly across pods — the
	// reduced two-level problem. lT leaves per full pod plus a remainder
	// pod with lrT leaves.
	for lt := t.LeavesPerPod; lt >= 1; lt-- {
		pods := leaves / lt
		lrT := leaves % lt
		if pods < 1 {
			continue
		}
		if pods == 1 && lrT == 0 {
			continue // single-subtree shape already tried
		}
		need := pods
		if lrT > 0 {
			need++
		}
		if need > t.Pods {
			continue
		}
		if steps <= 0 {
			return nil, false
		}
		if p, ok := core.FindThreeLevel(st, 1, pods, lt, lrT, 0, &steps, &a.scratch); ok {
			pl := p.Placement(t, job, 1)
			pl.Apply(st)
			return pl, true
		}
	}
	return nil, false
}

// FeasibilityClass implements alloc.FeasibilityClasser: LaaS's verdict for a
// fixed state depends only on the requested size (every job searches at
// demand 1), so schedulers may memoize negative verdicts per exact size.
func (a *Allocator) FeasibilityClass(topology.JobID) int32 { return 0 }

// MonotoneFeasibility implements alloc.MonotoneFeasibility. LaaS allocates
// whole, fully-free leaves, and its shape space is closed downward: from a
// feasible placement of m+1 leaves (P pods × lt leaves, plus a remainder pod
// of lrT < lt), dropping one leaf yields a shape the search also tries —
// P × lt with remainder lrT-1 when lrT > 0, else (P-1) × lt with remainder
// lt-1 — over a subset of the same pods, whose per-L2 spine-mask
// intersections can only grow and whose remainder requirement shrank. So if
// size N is infeasible, every larger size (never needing fewer leaves) is
// too. The one theoretical caveat — the step budget truncating a smaller
// search that an exhaustive pass would have satisfied — cannot trigger at
// the default budget, which exceeds the shape space by orders of magnitude
// (see DESIGN.md §11).
func (a *Allocator) MonotoneFeasibility() {}

// RoundedSize returns the node count LaaS actually allocates for a request:
// size rounded up to whole leaves.
func (a *Allocator) RoundedSize(size int) int {
	npl := a.Tree().NodesPerLeaf
	return (size + npl - 1) / npl * npl
}
