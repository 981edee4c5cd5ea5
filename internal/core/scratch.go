package core

import (
	"math/bits"

	"repro/internal/partition"
	"repro/internal/topology"
)

// Scratch holds every buffer the search kernels need, so a steady-state
// search allocates nothing: the per-call summary/freeLeaves/spine slices and
// lowestBits results that used to be made fresh on every candidate of every
// scheduling cycle live here instead, sized once per tree geometry.
//
// The recursive kernels are methods on Scratch rather than closures so that
// recursion carries no heap-allocated environment, and a successful search
// builds its partition directly into the result buffers below.
//
// Beyond buffers, a Scratch caches per-pod machine summaries — leaf free
// counts, demand-filtered uplink masks, width histograms, whole-leaf lists,
// and spine masks — for one (state, demand) pair, each pod's stamped with the
// state's version for that pod; see summaries.go. Within one Search call the
// state cannot change, so every factorization reads the summaries the first
// one computed; across calls a pod's summary is rebuilt exactly when a
// mutation touched that pod. The summaries feed the admissibility bounds of
// DESIGN.md §15, which let the search reject provably-infeasible pods and
// factorizations without entering the backtracking recursion.
//
// Aliasing contract: the *partition.Partition a search returns points into
// the Scratch it ran on and is valid only until the next search on that
// Scratch. Callers that consume the partition immediately (convert it to a
// topology.Placement, verify it, read it) need nothing special; callers that
// retain it must copy it first with Partition.Clone.
//
// A Scratch must not be shared between goroutines, and each allocator owns
// its own (allocator Clone methods deliberately give the clone a fresh zero
// Scratch). The zero value is ready to use; buffers are sized lazily to the
// tree of the first search and resized if a different tree is passed.
type Scratch struct {
	tree *topology.FatTree

	// In-flight search parameters, set by FindTwoLevel/FindThreeLevel.
	pod    int // two-level: the pod under search
	lt     int // full leaves per tree (LT)
	nl     int // nodes per full leaf (three-level: tree.NodesPerLeaf)
	nrl    int // remainder-leaf node count
	nTrees int // three-level: full trees T
	lrt    int // three-level: full leaves in the remainder tree
	steps  int // remaining backtracking budget

	// noBounds disables every admissibility bound and branch-and-bound
	// cutoff, turning the search back into the exhaustive pre-pruning
	// algorithm. Test-only: the pruned-vs-unpruned differential
	// (FuzzSearchPruned, TestSearchPrunedMatchesUnpruned) pins that pruning
	// only ever skips provably-infeasible subtrees.
	noBounds bool

	// Machine summaries (see summaries.go). sumSt/sumDemand identify the
	// (state, demand) they describe, and podSeen[p] is 1 + the PodVersion
	// pod p was summarized at (0: not since the last reset). Pods are
	// summarized lazily, so a first-factorization two-level hit never pays
	// for the whole machine, and only pods whose version moved are redone.
	sumSt     *topology.State
	sumDemand int32
	podSeen   []uint64

	lfFree      []int32  // per-leaf free-node count; global leaf index
	lfUp        []uint64 // per-leaf demand-filtered uplink mask
	lfCap       []int32  // per-leaf width min(free, popcount(up))
	capHist     []int32  // per-pod: #leaves of width >= n; stride NodesPerLeaf+2
	freeLeaves  []int    // per-pod whole-leaf lists, stride LeavesPerPod
	nFree       []int    // valid freeLeaves entries per pod
	spine       []uint64 // per-(pod, L2) free-spine masks, stride L2PerPod
	minSpinePop []int32  // per-pod min over L2 of popcount(spine)

	// Cross-pod aggregates for the three-level factorization bounds. The raw
	// counts cover every summarized pod and move with each pod rebuild
	// (ensurePod); the histograms are their suffix sums, redone by
	// ensureAggregates only while aggStale.
	nFreeCnt    []int32 // #pods with nFree == n; len LeavesPerPod+2
	spinePopRaw []int32 // per-L2: #pods with popcount(spine) == c; stride SpinesPerGroup+2
	aggStale    bool
	nFreeHist   []int32 // #pods with nFree >= n; len LeavesPerPod+2
	spinePopCnt []int32 // per-L2: #pods with popcount(spine) >= c; stride SpinesPerGroup+2

	// Two-level per-call state. elig masks the leaves of the current pod
	// wide enough for the current nL (leaf indices within a pod fit uint64
	// at every supported radix).
	elig    uint64
	chosenL []int
	inUseL  []bool

	// Three-level per-call state. podOK marks pods eligible for the current
	// (T, LT) shape; podEligTail[p] counts eligible pods with index >= p,
	// the suffix cutoff (pod counts can exceed 64, so no bitmask here).
	podOK       []bool
	podEligTail []int32
	f           []uint64 // running per-L2 spine intersection
	chosenP     []int
	inUseP      []bool

	// Result buffers: the partition a successful search returns points into
	// these (see the aliasing contract above). spineInts is the arena the
	// spineSet/spineSetR map values are carved from.
	s, sr     []int
	leafBuf   []partition.LeafAlloc
	treeBuf   []partition.TreeAlloc
	spineSet  map[int][]int
	spineSetR map[int][]int
	spineInts []int
	part      partition.Partition
}

// ensure sizes the buffers for the tree. Buffer capacities cover the worst
// case for their geometry, so no search on the same tree grows them.
func (sc *Scratch) ensure(t *topology.FatTree) {
	if sc.tree == t {
		return
	}
	sc.tree = t
	sc.sumSt = nil
	leaves := t.Leaves()
	sc.podSeen = make([]uint64, t.Pods)
	sc.lfFree = make([]int32, leaves)
	sc.lfUp = make([]uint64, leaves)
	sc.lfCap = make([]int32, leaves)
	sc.capHist = make([]int32, t.Pods*(t.NodesPerLeaf+2))
	sc.freeLeaves = make([]int, leaves)
	sc.nFree = make([]int, t.Pods)
	sc.spine = make([]uint64, t.Pods*t.L2PerPod)
	sc.minSpinePop = make([]int32, t.Pods)
	sc.nFreeCnt = make([]int32, t.LeavesPerPod+2)
	sc.spinePopRaw = make([]int32, t.L2PerPod*(t.SpinesPerGroup+2))
	sc.nFreeHist = make([]int32, t.LeavesPerPod+2)
	sc.spinePopCnt = make([]int32, t.L2PerPod*(t.SpinesPerGroup+2))
	sc.chosenL = make([]int, 0, t.LeavesPerPod)
	sc.inUseL = make([]bool, t.LeavesPerPod)
	sc.podOK = make([]bool, t.Pods)
	sc.podEligTail = make([]int32, t.Pods+1)
	sc.f = make([]uint64, t.L2PerPod)
	sc.chosenP = make([]int, 0, t.Pods)
	sc.inUseP = make([]bool, t.Pods)
	sc.s = make([]int, 0, t.L2PerPod)
	sc.sr = make([]int, 0, t.L2PerPod)
	sc.leafBuf = make([]partition.LeafAlloc, 0, t.Leaves()+t.Pods)
	sc.treeBuf = make([]partition.TreeAlloc, 0, t.Pods)
	sc.spineSet = make(map[int][]int, t.L2PerPod)
	sc.spineSetR = make(map[int][]int, t.L2PerPod)
	// Worst case per L2 index: LT spines for the full set, the remainder
	// selection, and the full set again while it is being assembled.
	sc.spineInts = make([]int, 0, 3*t.L2PerPod*t.SpinesPerGroup)
}

// appendLowestBits appends the indices of the lowest n set bits of m to dst
// (in ascending order). It panics if m has fewer than n bits set; callers
// establish that invariant first.
func appendLowestBits(dst []int, m uint64, n int) []int {
	for ; n > 0; n-- {
		i := bits.TrailingZeros64(m)
		if i == 64 {
			panic("core: appendLowestBits underflow")
		}
		dst = append(dst, i)
		m &^= 1 << i
	}
	return dst
}
