// Package baseline implements the traditional, unconstrained scheduler the
// paper compares against: jobs receive dedicated nodes anywhere on the
// machine (first-fit by node index) and the network is shared, so no links
// are allocated and no isolation is provided.
package baseline

import (
	"repro/internal/alloc"
	"repro/internal/topology"
)

// Allocator implements alloc.Allocator with no placement constraints beyond
// node availability.
type Allocator struct {
	alloc.Base
}

// NewAllocator returns a baseline allocator for a pristine tree.
func NewAllocator(tree *topology.FatTree) *Allocator {
	return &Allocator{Base: alloc.NewBase(topology.NewState(tree, 1))}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "Baseline" }

// Clone implements alloc.Allocator.
func (a *Allocator) Clone() alloc.Allocator {
	return &Allocator{Base: alloc.NewBase(a.State().Clone())}
}

// Allocate implements alloc.Allocator: any free nodes suffice.
func (a *Allocator) Allocate(job topology.JobID, size int) (*topology.Placement, bool) {
	st := a.State()
	if size < 1 || size > st.FreeNodes() {
		return nil, false
	}
	pl := topology.NewPlacement(job, 1)
	remaining := size
	for leaf := 0; leaf < st.Tree.Leaves() && remaining > 0; leaf++ {
		n := st.FreeInLeaf(leaf)
		if n == 0 {
			continue
		}
		if n > remaining {
			n = remaining
		}
		pl.AddLeafNodes(leaf, n)
		remaining -= n
	}
	pl.Apply(st)
	return pl, true
}

// FeasibilityClass implements alloc.FeasibilityClasser: the baseline's
// verdict depends only on the requested size, so schedulers may memoize
// negative verdicts per exact size.
func (a *Allocator) FeasibilityClass(topology.JobID) int32 { return 0 }

// MonotoneFeasibility implements alloc.MonotoneFeasibility: a job is
// feasible iff size <= free nodes, so failure at size N implies failure at
// every larger size against the same state.
func (a *Allocator) MonotoneFeasibility() {}
