package core

import (
	"repro/internal/alloc"
	"repro/internal/partition"
	"repro/internal/topology"
)

// DefaultSearchBudget bounds the number of backtracking extensions a whole
// Search may explore, across both passes and every factorization. The
// Jigsaw whole-leaf restriction keeps real searches far below this; the
// budget is a guard, not a tuning knob.
const DefaultSearchBudget = 1 << 20

// Allocator implements the Jigsaw scheduling approach (alloc.Allocator).
// Every placement it produces is an isolated partition satisfying the
// paper's formal conditions, so it carries full interconnect bandwidth
// (rearrangeable non-blocking; see internal/routing for the constructive
// check).
//
// NewLinkSharing builds the same search over shared links: each job charges
// a per-job demand against every link it uses instead of the whole link.
// Jigsaw+S (internal/jigsaws) is that allocator with LC+S's bandwidth model.
type Allocator struct {
	alloc.Base
	name   string
	budget int

	// demand is the per-link bandwidth a job charges; nil is Jigsaw's unit
	// demand on capacity-1 links.
	demand func(topology.JobID) int32

	// SparseFirst flips the two-level factorization order from dense-first
	// (fewest leaves, the default) to sparse-first; exposed for the
	// ablation benchmarks.
	SparseFirst bool

	// scratch backs the allocator's searches; Clone deliberately gives the
	// clone a fresh zero Scratch (a Scratch must never be shared).
	scratch Scratch
}

// NewAllocator returns a Jigsaw allocator for a pristine tree.
func NewAllocator(tree *topology.FatTree) *Allocator {
	return NewLinkSharing(tree, "Jigsaw", 1, nil)
}

// NewLinkSharing returns a Jigsaw allocator named name for a pristine tree
// whose links have the given capacity and on which each job charges
// demand(job) per link; a nil demand is Jigsaw's unit demand.
func NewLinkSharing(tree *topology.FatTree, name string, capacity int32, demand func(topology.JobID) int32) *Allocator {
	return &Allocator{
		Base:   alloc.NewBase(topology.NewState(tree, capacity)),
		name:   name,
		budget: DefaultSearchBudget,
		demand: demand,
	}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.name }

// Clone implements alloc.Allocator.
func (a *Allocator) Clone() alloc.Allocator {
	return &Allocator{
		Base:        alloc.NewBase(a.State().Clone()),
		name:        a.name,
		budget:      a.budget,
		demand:      a.demand,
		SparseFirst: a.SparseFirst,
	}
}

// demandFor returns the per-link bandwidth job charges.
func (a *Allocator) demandFor(job topology.JobID) int32 {
	if a.demand == nil {
		return 1
	}
	return a.demand(job)
}

// FindPartition is FindJobPartition for callers with no job at hand; under
// unit demand the search does not depend on the job. It implements
// get_allocation of Algorithm 1.
func (a *Allocator) FindPartition(size int) (*partition.Partition, bool) {
	return a.FindJobPartition(0, size)
}

// FindJobPartition implements alloc.PartitionFinder: it searches for a
// Jigsaw-legal partition of the given size at the job's demand without
// charging it. All two-level (single-subtree) factorizations are tried
// first, then three-level whole-leaf factorizations. The returned partition
// is an independent copy the caller may retain.
func (a *Allocator) FindJobPartition(job topology.JobID, size int) (*partition.Partition, bool) {
	p, ok := Search(a.State(), a.demandFor(job), size, a.SparseFirst, a.budget, &a.scratch)
	if !ok {
		return nil, false
	}
	return p.Clone(), true
}

// Search runs the full Jigsaw allocation search (Algorithm 1) against an
// arbitrary state with an arbitrary per-link bandwidth demand. The isolating
// Jigsaw scheduler uses demand 1 on capacity-1 links; the Jigsaw+S variant
// (Section 5.2.3 notes the link-sharing relaxation composes with Jigsaw)
// passes fractional demands against shared-capacity links.
//
// budget is a whole-search step budget: every backtracking extension in
// either pass, across all factorizations, draws from the same pool, so a
// budget-B search performs at most B extensions before giving up.
//
// The returned partition aliases sc (valid until sc's next search); pass a
// nil sc for a single-use scratch.
func Search(st *topology.State, demand int32, size int, sparseFirst bool, budget int, sc *Scratch) (*partition.Partition, bool) {
	p, ok, _ := search(st, demand, size, sparseFirst, budget, sc)
	return p, ok
}

// search is Search plus the number of budget steps the search consumed,
// which the budget-contract tests observe.
func search(st *topology.State, demand int32, size int, sparseFirst bool, budget int, sc *Scratch) (*partition.Partition, bool, int) {
	t := st.Tree
	if size < 1 || size > st.FreeNodes() {
		return nil, false, 0
	}
	steps := budget

	// Two-level pass: size = LT*nL + nrL, nrL < nL.
	maxNL := t.NodesPerLeaf
	if size < maxNL {
		maxNL = size
	}
	for k := 0; k < maxNL; k++ {
		nL := maxNL - k
		if sparseFirst {
			nL = 1 + k
		}
		lt := size / nL
		nrL := size % nL
		need := lt
		if nrL > 0 {
			need++
		}
		if lt < 1 || need > t.LeavesPerPod {
			continue
		}
		for pod := 0; pod < t.Pods; pod++ {
			if steps <= 0 {
				return nil, false, budget
			}
			if p, ok := FindTwoLevel(st, demand, pod, lt, nL, nrL, &steps, sc); ok {
				return p, true, budget - steps
			}
		}
	}

	// Three-level pass with the whole-leaf restriction: nL = NodesPerLeaf,
	// size = T*nT + nrT with nL | nT.
	nL := t.NodesPerLeaf
	for lt := t.LeavesPerPod; lt >= 1; lt-- {
		nT := lt * nL
		T := size / nT
		nrT := size % nT
		if T < 1 {
			continue
		}
		if T == 1 && nrT == 0 {
			continue // equivalent shape already tried by the two-level pass
		}
		need := T
		if nrT > 0 {
			need++
		}
		if need > t.Pods {
			continue
		}
		if steps <= 0 {
			return nil, false, budget
		}
		if p, ok := FindThreeLevel(st, demand, T, lt, nrT/nL, nrT%nL, &steps, sc); ok {
			return p, true, budget - steps
		}
	}
	return nil, false, budget - steps
}

// Allocate implements alloc.Allocator: it finds a partition, converts it to
// a placement, and charges it against the state. The scratch-backed
// partition is consumed immediately (Placement copies what it needs), so no
// clone is taken on this hot path.
func (a *Allocator) Allocate(job topology.JobID, size int) (*topology.Placement, bool) {
	demand := a.demandFor(job)
	p, ok := Search(a.State(), demand, size, a.SparseFirst, a.budget, &a.scratch)
	if !ok {
		return nil, false
	}
	pl := p.Placement(a.Tree(), job, demand)
	pl.Apply(a.State())
	return pl, true
}

// FeasibilityClass implements alloc.FeasibilityClasser. Under unit demand
// the verdict for a fixed state depends only on the requested size, so
// schedulers may memoize negative verdicts per exact size. Under a per-job
// demand two same-size jobs in different bandwidth classes can get
// different verdicts, so the memo must key on the demand too.
func (a *Allocator) FeasibilityClass(job topology.JobID) int32 {
	if a.demand == nil {
		return 0
	}
	return a.demand(job)
}
