// Package core implements the Jigsaw allocation algorithm (Algorithm 1 of
// the paper): a backtracking search for node-and-link allocations satisfying
// the formal conditions of Section 3.2, restricted — for allocations that
// span three levels — to whole leaves (all nodes per leaf except a single
// remainder leaf). The restriction is what keeps the search fast and
// external fragmentation low (Section 4).
//
// The two search primitives, FindTwoLevel and FindThreeLevel, are exported
// because the LaaS comparison scheme (internal/laas) reuses them at
// whole-leaf granularity. Both run on a caller-supplied Scratch (nil for a
// throwaway one) and return partitions aliasing it; see the Scratch
// aliasing contract.
//
// Both primitives prune with the subtree-infeasibility bounds of DESIGN.md
// §15: per-pod and cross-pod summaries cached on the Scratch (summaries.go)
// reject pods and whole factorizations that provably cannot host the
// requested shape before any backtracking happens, and suffix-count cutoffs
// truncate the recursions early. Every bound is a necessary condition for a
// solution to exist, so pruning never changes which partition a search finds
// — only how fast a miss is proven (FuzzSearchPruned pins this).
package core

import (
	"math"
	"math/bits"

	"repro/internal/partition"
	"repro/internal/topology"
)

// noBudget is the step budget used when the caller passes a nil budget
// pointer: large enough to never exhaust, so the search is effectively
// unbudgeted.
const noBudget = math.MaxInt

// FindTwoLevel searches one pod for a two-level allocation of LT leaves with
// nL nodes each plus an optional remainder leaf with nrL < nL nodes, such
// that the chosen full leaves share nL free uplinks to a common set S of L2
// switches and the remainder leaf has nrL free uplinks inside S (the
// conditions of Section 3.2 restricted to a single tree). Links must have
// residual capacity of at least demand. It returns the first partition
// found, scanning leaves in index order with exhaustive backtracking.
//
// steps, when non-nil, is the remaining whole-search step budget: each
// backtracking extension consumes one step, the remainder is written back,
// and the search gives up (without concluding infeasibility) when the budget
// hits zero. A nil steps runs unbudgeted.
//
// The returned partition aliases sc (valid until sc's next search); pass a
// nil sc for a single-use scratch.
func FindTwoLevel(st *topology.State, demand int32, pod, LT, nL, nrL int, steps *int, sc *Scratch) (*partition.Partition, bool) {
	t := st.Tree
	needLeaves := LT
	if nrL > 0 {
		needLeaves++
	}
	if LT < 1 || nL < 1 || nL > t.NodesPerLeaf || nrL >= nL || needLeaves > t.LeavesPerPod {
		return nil, false
	}
	// Pod-level counter skip: the LT full leaves need nL free nodes each and
	// the remainder leaf nrL more, all on distinct leaves of this pod.
	if st.FreeInPod(pod) < LT*nL+nrL {
		return nil, false
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensure(t)
	sc.syncState(st, demand)
	sc.ensurePod(pod)
	base := pod * t.LeavesPerPod
	var elig uint64
	if sc.noBounds {
		for l := 0; l < t.LeavesPerPod; l++ {
			if sc.lfFree[base+l] >= int32(nL) {
				elig |= 1 << l
			}
		}
	} else {
		// Admissibility bounds (DESIGN.md §15): the pod must hold LT leaves
		// of width >= nL, plus one more of width >= nrL for the remainder.
		hist := sc.capHist[pod*(t.NodesPerLeaf+2):]
		if hist[nL] < int32(LT) {
			return nil, false
		}
		if nrL > 0 && hist[nrL] < int32(LT+1) {
			return nil, false
		}
		// A leaf of width < nL can never join the full set: it would fail
		// the intersection-popcount check against any running mask.
		for l := 0; l < t.LeavesPerPod; l++ {
			if sc.lfCap[base+l] >= int32(nL) {
				elig |= 1 << l
			}
		}
	}
	sc.pod, sc.lt, sc.nl, sc.nrl = pod, LT, nL, nrL
	sc.elig = elig
	sc.chosenL = sc.chosenL[:0]
	clear(sc.inUseL)
	sc.steps = noBudget
	if steps != nil {
		sc.steps = *steps
	}
	p, ok := sc.twoRec(0, t.HalfMask())
	if steps != nil {
		*steps = sc.steps
	}
	return p, ok
}

// twoRec extends the chosen-leaf set with eligible leaves from start onward,
// keeping the running uplink intersection m.
func (sc *Scratch) twoRec(start int, m uint64) (*partition.Partition, bool) {
	t := sc.tree
	if len(sc.chosenL) == sc.lt {
		return sc.twoFinish(m)
	}
	need := sc.lt - len(sc.chosenL)
	base := sc.pod * t.LeavesPerPod
	// Eligible leaves at index >= start (a shift of 64 or more yields 0, so
	// start == 64 correctly leaves nothing).
	avail := sc.elig &^ (uint64(1)<<uint(start) - 1)
	for avail != 0 {
		l := bits.TrailingZeros64(avail)
		if l > t.LeavesPerPod-need {
			break // not enough leaves left to reach LT
		}
		if !sc.noBounds && bits.OnesCount64(avail) < need {
			break // cutoff: fewer eligible leaves remain than the set needs
		}
		avail &= avail - 1
		nm := m & sc.lfUp[base+l]
		if bits.OnesCount64(nm) < sc.nl {
			continue
		}
		if sc.steps <= 0 {
			return nil, false
		}
		sc.steps--
		sc.chosenL = append(sc.chosenL, l)
		sc.inUseL[l] = true
		if p, ok := sc.twoRec(l+1, nm); ok {
			return p, true
		}
		sc.inUseL[l] = false
		sc.chosenL = sc.chosenL[:len(sc.chosenL)-1]
	}
	return nil, false
}

// twoFinish tries to complete the two-level allocation once LT full leaves
// are chosen with common uplink mask m.
func (sc *Scratch) twoFinish(m uint64) (*partition.Partition, bool) {
	t := sc.tree
	base := sc.pod * t.LeavesPerPod
	remLeaf := -1
	if sc.nrl > 0 {
		var srMask uint64
		for l := 0; l < t.LeavesPerPod; l++ {
			if sc.inUseL[l] || sc.lfFree[base+l] < int32(sc.nrl) {
				continue
			}
			common := m & sc.lfUp[base+l]
			if bits.OnesCount64(common) < sc.nrl {
				continue
			}
			remLeaf = l
			sc.sr = appendLowestBits(sc.sr[:0], common, sc.nrl)
			srMask = 0
			for _, i := range sc.sr {
				srMask |= 1 << i
			}
			break
		}
		if remLeaf < 0 {
			return nil, false
		}
		sc.s = append(sc.s[:0], sc.sr...)
		sc.s = appendLowestBits(sc.s, m&^srMask, sc.nl-sc.nrl)
		sortInts(sc.s)
		sortInts(sc.sr)
	} else {
		sc.s = appendLowestBits(sc.s[:0], m, sc.nl)
	}

	sc.leafBuf = sc.leafBuf[:0]
	for _, l := range sc.chosenL {
		sc.leafBuf = append(sc.leafBuf, partition.LeafAlloc{Leaf: l, N: sc.nl})
	}
	if remLeaf >= 0 {
		sc.leafBuf = append(sc.leafBuf, partition.LeafAlloc{Leaf: remLeaf, N: sc.nrl})
	}
	sc.treeBuf = append(sc.treeBuf[:0], partition.TreeAlloc{Pod: sc.pod, Leaves: sc.leafBuf})
	sc.part = partition.Partition{NL: sc.nl, LT: sc.lt, S: sc.s, Trees: sc.treeBuf}
	if remLeaf >= 0 {
		sc.part.Sr = sc.sr
	}
	return &sc.part, true
}

// FindThreeLevel searches the machine for a whole-leaf three-level
// allocation: T full trees of LT completely-free leaves each, plus an
// optional remainder tree with LrT completely-free leaves and an optional
// remainder leaf with nrL nodes. Every full leaf uses all its uplinks, so
// the common L2 set S is the entire L2 level and what couples the trees is
// spine availability: each L2 index i needs a spine set S*_i of size LT free
// in every chosen full tree, with the remainder tree drawing its smaller
// subsets from S*_i. Links must have residual of at least demand.
//
// steps is the remaining whole-search step budget: each backtracking
// extension consumes one step, the remainder is written back, and the search
// gives up (without concluding infeasibility) when the budget hits zero.
//
// The returned partition aliases sc (valid until sc's next search); pass a
// nil sc for a single-use scratch.
func FindThreeLevel(st *topology.State, demand int32, T, LT, LrT, nrL int, steps *int, sc *Scratch) (*partition.Partition, bool) {
	t := st.Tree
	nL := t.NodesPerLeaf
	treesNeeded := T
	hasRem := LrT > 0 || nrL > 0
	if hasRem {
		treesNeeded++
	}
	if T < 1 || LT < 1 || LT > t.LeavesPerPod || nrL >= nL || treesNeeded > t.Pods {
		return nil, false
	}
	if LrT*nL+nrL >= LT*nL {
		return nil, false // remainder tree must be strictly smaller
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensure(t)
	sc.syncState(st, demand)
	for p := 0; p < t.Pods; p++ {
		sc.ensurePod(p)
	}
	sc.nTrees, sc.lt, sc.nl, sc.lrt, sc.nrl = T, LT, nL, LrT, nrL

	if !sc.noBounds {
		sc.ensureAggregates()
		// Factorization bounds (DESIGN.md §15): T pods with LT whole-free
		// leaves (one more with LrT for the remainder tree), and at every L2
		// index enough pods whose spine group still has LT (resp. LrT) free
		// spines — all necessary conditions read off the cross-pod histograms.
		if sc.nFreeHist[LT] < int32(T) {
			return nil, false
		}
		if LrT > 0 && sc.nFreeHist[LrT] < int32(T+1) {
			return nil, false
		}
		spg := t.SpinesPerGroup + 2
		for i := 0; i < t.L2PerPod; i++ {
			if sc.spinePopCnt[i*spg+LT] < int32(T) {
				return nil, false
			}
			if LrT > 0 && sc.spinePopCnt[i*spg+LrT] < int32(T+1) {
				return nil, false
			}
		}
	}

	// Pod eligibility for the full-tree recursion, with suffix counts for
	// the branch-and-bound cutoff. A pod whose minimum spine popcount is
	// below LT would fail the intersection check on every L2 pass, so the
	// pruned search rejects it here, once per factorization, before the
	// recursion reaches it.
	sc.podEligTail[t.Pods] = 0
	for p := t.Pods - 1; p >= 0; p-- {
		ok := sc.nFree[p] >= LT
		if !sc.noBounds && sc.minSpinePop[p] < int32(LT) {
			ok = false
		}
		sc.podOK[p] = ok
		cnt := sc.podEligTail[p+1]
		if ok {
			cnt++
		}
		sc.podEligTail[p] = cnt
	}
	if !sc.noBounds && sc.podEligTail[0] < int32(T) {
		return nil, false
	}

	sc.chosenP = sc.chosenP[:0]
	clear(sc.inUseP)
	for i := range sc.f {
		sc.f[i] = t.HalfMask()
	}
	// The budget lives in sc for the duration of the search (storing the
	// caller's pointer would force its variable onto the heap).
	sc.steps = *steps
	p, ok := sc.threeRec(0)
	*steps = sc.steps
	return p, ok
}

// threeRec extends the chosen-pod set with pods from start onward,
// maintaining the per-L2 spine intersections in sc.f.
func (sc *Scratch) threeRec(start int) (*partition.Partition, bool) {
	t := sc.tree
	if len(sc.chosenP) == sc.nTrees {
		return sc.tryRemainder()
	}
	need := sc.nTrees - len(sc.chosenP)
	for p := start; p <= t.Pods-need; p++ {
		if !sc.noBounds && sc.podEligTail[p] < int32(need) {
			break // cutoff: fewer eligible pods remain than the set needs
		}
		if !sc.podOK[p] {
			continue
		}
		if sc.steps <= 0 {
			return nil, false
		}
		sc.steps--
		// Intersect spine masks; prune if any L2 drops below LT.
		var saved [64]uint64
		ok := true
		sbase := p * t.L2PerPod
		for i := 0; i < t.L2PerPod; i++ {
			saved[i] = sc.f[i]
			sc.f[i] &= sc.spine[sbase+i]
			if bits.OnesCount64(sc.f[i]) < sc.lt {
				ok = false
			}
		}
		if ok {
			sc.chosenP = append(sc.chosenP, p)
			sc.inUseP[p] = true
			if part, found := sc.threeRec(p + 1); found {
				return part, true
			}
			sc.inUseP[p] = false
			sc.chosenP = sc.chosenP[:len(sc.chosenP)-1]
		}
		for i := 0; i < t.L2PerPod; i++ {
			sc.f[i] = saved[i]
		}
	}
	return nil, false
}

// tryRemainder completes the three-level allocation given the chosen full
// pods and intersection masks sc.f.
func (sc *Scratch) tryRemainder() (*partition.Partition, bool) {
	t := sc.tree
	hasRem := sc.lrt > 0 || sc.nrl > 0
	remPod, remLeaf := -1, -1
	sc.sr = sc.sr[:0]
	if hasRem {
	pods:
		for p := 0; p < t.Pods; p++ {
			if sc.inUseP[p] || sc.nFree[p] < sc.lrt {
				continue
			}
			// Prune: a remainder pod whose own spine groups cannot supply
			// LrT spines at some L2 index fails the loop below regardless
			// of the intersection.
			if !sc.noBounds && sc.minSpinePop[p] < int32(sc.lrt) {
				continue
			}
			sbase := p * t.L2PerPod
			// All L2 indices need LrT spines free in the remainder pod
			// within the (eventual) S*_i ⊆ f_i.
			for i := 0; i < t.L2PerPod; i++ {
				if bits.OnesCount64(sc.f[i]&sc.spine[sbase+i]) < sc.lrt {
					continue pods
				}
			}
			if sc.nrl == 0 {
				remPod = p
				break
			}
			// Find a remainder leaf: not one of the LrT full leaves,
			// with nrL free nodes, and at least nrL L2 indices i where
			// its uplink is free and f_i ∩ spine_i supports LrT+1. The
			// full leaves are marked in a bitmask (within-pod leaf
			// indices never exceed 64 for any supported radix).
			var taken uint64
			base := p * t.LeavesPerPod
			for k := 0; k < sc.lrt; k++ {
				taken |= 1 << sc.freeLeaves[base+k]
			}
			for l := 0; l < t.LeavesPerPod; l++ {
				if taken&(1<<l) != 0 {
					continue
				}
				if sc.lfFree[base+l] < int32(sc.nrl) {
					continue
				}
				up := sc.lfUp[base+l]
				sc.sr = sc.sr[:0]
				for i := 0; i < t.L2PerPod && len(sc.sr) < sc.nrl; i++ {
					if up&(1<<i) != 0 && bits.OnesCount64(sc.f[i]&sc.spine[sbase+i]) >= sc.lrt+1 {
						sc.sr = append(sc.sr, i)
					}
				}
				if len(sc.sr) == sc.nrl {
					remPod, remLeaf = p, l
					break pods
				}
			}
		}
		if remPod < 0 {
			return nil, false
		}
	}

	// Choose spine sets: S*_i takes the remainder tree's requirement
	// from f_i ∩ spine[remPod][i] first, then fills to LT from f_i.
	srMask := uint64(0)
	for _, i := range sc.sr {
		srMask |= 1 << i
	}
	clear(sc.spineSet)
	clear(sc.spineSetR)
	sc.spineInts = sc.spineInts[:0]
	rbase := 0
	if remPod >= 0 {
		rbase = remPod * t.L2PerPod
	}
	for i := 0; i < t.L2PerPod; i++ {
		if !hasRem {
			start := len(sc.spineInts)
			sc.spineInts = appendLowestBits(sc.spineInts, sc.f[i], sc.lt)
			sc.spineSet[i] = sc.spineInts[start:len(sc.spineInts):len(sc.spineInts)]
			continue
		}
		req := sc.lrt
		if srMask&(1<<i) != 0 {
			req++
		}
		start := len(sc.spineInts)
		sc.spineInts = appendLowestBits(sc.spineInts, sc.f[i]&sc.spine[rbase+i], req)
		rsel := sc.spineInts[start:len(sc.spineInts):len(sc.spineInts)]
		var rm uint64
		for _, s := range rsel {
			rm |= 1 << s
		}
		start = len(sc.spineInts)
		sc.spineInts = append(sc.spineInts, rsel...)
		sc.spineInts = appendLowestBits(sc.spineInts, sc.f[i]&^rm, sc.lt-req)
		all := sc.spineInts[start:len(sc.spineInts):len(sc.spineInts)]
		sortInts(all)
		sortInts(rsel)
		sc.spineSet[i] = all
		sc.spineSetR[i] = rsel
	}

	sc.s = sc.s[:0]
	for i := 0; i < t.L2PerPod; i++ {
		sc.s = append(sc.s, i)
	}
	sc.leafBuf = sc.leafBuf[:0]
	sc.treeBuf = sc.treeBuf[:0]
	for _, p := range sc.chosenP {
		start := len(sc.leafBuf)
		base := p * t.LeavesPerPod
		for k := 0; k < sc.lt; k++ {
			sc.leafBuf = append(sc.leafBuf, partition.LeafAlloc{Leaf: sc.freeLeaves[base+k], N: sc.nl})
		}
		sc.treeBuf = append(sc.treeBuf, partition.TreeAlloc{
			Pod: p, Leaves: sc.leafBuf[start:len(sc.leafBuf):len(sc.leafBuf)],
		})
	}
	if hasRem {
		start := len(sc.leafBuf)
		base := remPod * t.LeavesPerPod
		for k := 0; k < sc.lrt; k++ {
			sc.leafBuf = append(sc.leafBuf, partition.LeafAlloc{Leaf: sc.freeLeaves[base+k], N: sc.nl})
		}
		if sc.nrl > 0 {
			sc.leafBuf = append(sc.leafBuf, partition.LeafAlloc{Leaf: remLeaf, N: sc.nrl})
		}
		sc.treeBuf = append(sc.treeBuf, partition.TreeAlloc{
			Pod: remPod, Leaves: sc.leafBuf[start:len(sc.leafBuf):len(sc.leafBuf)], Remainder: true,
		})
	}
	sortInts(sc.sr)
	sc.part = partition.Partition{
		NL: sc.nl, LT: sc.lt, S: sc.s, Sr: sc.sr,
		SpineSet: sc.spineSet, SpineSetR: sc.spineSetR,
		Trees: sc.treeBuf,
	}
	if sc.nrl == 0 {
		sc.part.Sr = nil
	}
	if !hasRem {
		sc.part.SpineSetR = nil
	}
	return &sc.part, true
}

// sortInts is a tiny insertion sort; index sets here have at most radix/2
// elements.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
