package topology

// Per-pod free-capacity summaries: the read-side digest the sharded daemon's
// cross-shard coordinator consumes. Each summary condenses one pod's
// sub-pod-granularity availability at full-bandwidth demand — which leaves
// are completely untouched, and which spine uplinks still carry full
// residual per L2 group — into a few machine words, so a snapshot publish
// can carry the whole cell's state and a candidate search can run without
// touching any engine (internal/server's coordinator, DESIGN.md §16).
//
// The summaries are exact at capture time (they read the same incremental
// indices the allocators use), and deliberately coarse: a leaf that is
// partially occupied contributes nothing, because the Section 3.2
// composition the coordinator builds (shard.ComposeSubPod) only ever takes
// whole fully-free leaves.

// PodSummary is one pod's sub-pod free capacity at full-bandwidth demand.
type PodSummary struct {
	// Pod is the pod index in the fat tree.
	Pod int
	// FreeLeaves counts the pod's fully-free leaves (== popcount of
	// LeafMask, precomputed because every consumer sorts or filters on it).
	FreeLeaves int
	// LeafMask has bit l set when local leaf l is fully free: every node
	// unallocated and every uplink at full residual.
	LeafMask uint64
	// SpineFree holds, per L2 group i, the mask of spines sp whose uplink
	// from this pod's L2 i retains full residual. A nil slice means every
	// spine uplink of the pod is at full residual (the common case — it
	// keeps fully-idle pods allocation-free to summarize).
	SpineFree []uint64
}

// PodSummaries appends a summary for every pod in the state's cell range to
// dst and returns it. The result is detached from the state: mutating the
// state afterwards does not change previously returned summaries.
func (s *State) PodSummaries(dst []PodSummary) []PodSummary {
	lo, hi := s.CellRange()
	for pod := lo; pod < hi; pod++ {
		dst = append(dst, s.SummarizePod(pod))
	}
	return dst
}

// SummarizePod returns one pod's summary, detached from the state like
// PodSummaries'. Paired with PodVersion it lets a caller keep summaries and
// re-derive only the pods that changed (internal/snapshot does).
func (s *State) SummarizePod(pod int) PodSummary {
	ps := PodSummary{Pod: pod}
	base := pod * s.Tree.LeavesPerPod
	for l := 0; l < s.Tree.LeavesPerPod; l++ {
		if s.FullyFreeLeaf(base + l) {
			ps.LeafMask |= 1 << l
			ps.FreeLeaves++
		}
	}
	if !s.PodSpinesFree(pod) {
		ps.SpineFree = make([]uint64, s.Tree.L2PerPod)
		for i := 0; i < s.Tree.L2PerPod; i++ {
			ps.SpineFree[i] = s.SpineMask(pod, i, s.Capacity)
		}
	}
	return ps
}
