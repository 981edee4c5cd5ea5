// Package ta implements the topology-aware (TA) comparison scheme (Jain et
// al., IPDPS 2017; Section 5.2.2 of the Jigsaw paper). TA never allocates
// links explicitly; instead its node-placement rules avoid every placement
// in which two jobs could conceivably contend under an arbitrary routing:
//
//   - a job that fits within one leaf must be placed within one leaf; such
//     jobs may share a leaf with each other (their flows cross only the leaf
//     crossbar, which is non-blocking) but not with a multi-leaf job, whose
//     implicit reservation covers the whole leaf switch;
//   - a job that fits within one pod must be placed within one pod, on
//     leaves no other job touches, and it implicitly owns every uplink of
//     every leaf it touches (Figure 2, center: internal link fragmentation);
//   - a larger job spans pods and implicitly owns each used pod's L2→spine
//     uplinks, so machine-level jobs never share a pod with each other.
//
// The single-leaf and single-pod requirements are what produce TA's external
// node fragmentation (Figure 2, right): a 3-node job waits for one leaf with
// 3 free nodes even when the machine has plenty of scattered free nodes.
//
// The implicit ownership is made explicit here by charging the claimed links
// on the shared topology.State, which keeps the isolation invariant machine-
// checkable.
package ta

import (
	"repro/internal/alloc"
	"repro/internal/topology"
)

// leafCand is a claimable fully-free leaf; podCand a pod with its claimable
// node count.
type leafCand struct{ leaf, free int }
type podCand struct{ pod, avail int }

// Allocator implements alloc.Allocator under the TA rules.
type Allocator struct {
	alloc.Base

	// leafCands/podCands are reusable candidate buffers for the multi-leaf
	// allocation paths, so steady-state Allocate calls do not grow fresh
	// slices. Clone deliberately leaves them nil (never shared).
	leafCands []leafCand
	podCands  []podCand
}

// NewAllocator returns a TA allocator for a pristine tree.
func NewAllocator(tree *topology.FatTree) *Allocator {
	return &Allocator{Base: alloc.NewBase(topology.NewState(tree, 1))}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "TA" }

// Clone implements alloc.Allocator.
func (a *Allocator) Clone() alloc.Allocator {
	return &Allocator{Base: alloc.NewBase(a.State().Clone())}
}

// leafOwnable reports whether every uplink of the leaf is free, i.e. no
// other multi-leaf job has claimed the leaf. With capacity-1 links this is
// exactly the state's untouched-uplink index.
func (a *Allocator) leafOwnable(leafIdx int) bool {
	return a.State().LeafUplinksFree(leafIdx)
}

// podOwnable reports whether every L2→spine uplink of the pod is free, i.e.
// no machine-level job has claimed the pod (the per-pod busy-spine counter
// is zero).
func (a *Allocator) podOwnable(pod int) bool {
	return a.State().PodSpinesFree(pod)
}

// Allocate implements alloc.Allocator.
func (a *Allocator) Allocate(job topology.JobID, size int) (*topology.Placement, bool) {
	t := a.Tree()
	switch {
	case size < 1:
		return nil, false
	case size <= t.NodesPerLeaf:
		return a.allocLeafLevel(job, size)
	case size <= t.PodNodes():
		return a.allocPodLevel(job, size)
	default:
		return a.allocMachineLevel(job, size)
	}
}

// allocLeafLevel places the job on a single leaf; no links are claimed.
// The leaf switch must not be owned by a multi-leaf job (leaf-level jobs
// route through the leaf switch, which a multi-leaf job's implicit
// reservation covers), but leaf-level jobs share leaves with each other.
func (a *Allocator) allocLeafLevel(job topology.JobID, size int) (*topology.Placement, bool) {
	t := a.Tree()
	for pod := 0; pod < t.Pods; pod++ {
		// Per-pod counter skip: no leaf can hold size free nodes if the
		// whole pod has fewer.
		if a.State().FreeInPod(pod) < size {
			continue
		}
		for l := 0; l < t.LeavesPerPod; l++ {
			leaf := t.LeafIndex(pod, l)
			if a.State().FreeInLeaf(leaf) >= size && a.leafOwnable(leaf) {
				pl := topology.NewPlacement(job, 1)
				pl.AddLeafNodes(leaf, size)
				pl.Apply(a.State())
				return pl, true
			}
		}
	}
	return nil, false
}

// claimLeaves takes nodes (fullest eligible leaves first, minimizing the
// number of claimed leaves) and every uplink of each used leaf. It returns
// false without modifying pl if the eligible leaves cannot cover size.
func (a *Allocator) claimLeaves(pl *topology.Placement, pod, size int) bool {
	t := a.Tree()
	cands := a.leafCands[:0]
	total := 0
	for l := 0; l < t.LeavesPerPod; l++ {
		leafIdx := t.LeafIndex(pod, l)
		// A multi-leaf job takes whole leaf switches: the leaf must be
		// empty (no leaf-level jobs' nodes share its crossbar) and its
		// uplinks unclaimed — exactly the state's untouched-leaf index.
		if a.State().FullyFreeLeaf(leafIdx) {
			cands = append(cands, leafCand{leafIdx, t.NodesPerLeaf})
			total += t.NodesPerLeaf
		}
	}
	a.leafCands = cands
	if total < size {
		return false
	}
	// Fullest-first keeps the claimed-link footprint minimal.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].free > cands[j-1].free; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	remaining := size
	for _, c := range cands {
		if remaining == 0 {
			break
		}
		n := c.free
		if n > remaining {
			n = remaining
		}
		pl.AddLeafNodes(c.leaf, n)
		for i := 0; i < t.L2PerPod; i++ {
			pl.AddLeafUp(c.leaf, i)
		}
		remaining -= n
	}
	return remaining == 0
}

// allocPodLevel places the job within a single pod on empty, unclaimed
// leaves. Pods hosting a machine-level job are excluded: that job owns the
// pod's L2 switches (it routes through them to the spines), which a
// pod-level job's traffic would share.
func (a *Allocator) allocPodLevel(job topology.JobID, size int) (*topology.Placement, bool) {
	t := a.Tree()
	for pod := 0; pod < t.Pods; pod++ {
		if !a.podOwnable(pod) {
			continue
		}
		// claimLeaves draws only from fully-free leaves, so a pod with
		// fewer untouched leaves than the job needs can never satisfy it;
		// skip via the per-pod counter.
		if a.State().FullyFreeLeavesInPod(pod)*t.NodesPerLeaf < size {
			continue
		}
		pl := topology.NewPlacement(job, 1)
		if a.claimLeaves(pl, pod, size) {
			pl.Apply(a.State())
			return pl, true
		}
	}
	return nil, false
}

// allocMachineLevel places the job across pods, claiming each used pod's
// spine uplinks and each used leaf's uplinks.
func (a *Allocator) allocMachineLevel(job topology.JobID, size int) (*topology.Placement, bool) {
	t := a.Tree()
	cands := a.podCands[:0]
	total := 0
pods:
	for p := 0; p < t.Pods; p++ {
		if !a.podOwnable(p) {
			continue
		}
		// An empty pod contributes nothing; skip via the per-pod counter.
		if a.State().FreeInPod(p) == 0 {
			continue
		}
		avail := 0
		for l := 0; l < t.LeavesPerPod; l++ {
			leafIdx := t.LeafIndex(p, l)
			if !a.leafOwnable(leafIdx) {
				// A pod-level job lives here and owns leaf switches the
				// machine-level job's pod traffic would cross.
				continue pods
			}
			if a.State().FreeInLeaf(leafIdx) == t.NodesPerLeaf {
				avail += t.NodesPerLeaf
			}
		}
		if avail > 0 {
			cands = append(cands, podCand{p, avail})
			total += avail
		}
	}
	a.podCands = cands
	if total < size {
		return nil, false
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].avail > cands[j-1].avail; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	pl := topology.NewPlacement(job, 1)
	remaining := size
	for _, c := range cands {
		if remaining == 0 {
			break
		}
		n := c.avail
		if n > remaining {
			n = remaining
		}
		if !a.claimLeaves(pl, c.pod, n) {
			return nil, false // unreachable: avail was computed from the same predicate
		}
		for i := 0; i < t.L2PerPod; i++ {
			for sp := 0; sp < t.SpinesPerGroup; sp++ {
				pl.AddSpineUp(c.pod, i, sp)
			}
		}
		remaining -= n
	}
	if remaining != 0 {
		return nil, false
	}
	pl.Apply(a.State())
	return pl, true
}

// FeasibilityClass implements alloc.FeasibilityClasser: TA's verdict for a
// fixed state depends only on the requested size, so schedulers may memoize
// negative verdicts per exact size. TA is not size-monotone — a 3-node job
// can fail for want of a single leaf with 3 free nodes while a whole-leaf
// multiple still fits — so it does not declare alloc.MonotoneFeasibility.
func (a *Allocator) FeasibilityClass(topology.JobID) int32 { return 0 }
