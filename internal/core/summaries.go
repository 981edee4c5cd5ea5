package core

import (
	"math/bits"

	"repro/internal/topology"
)

// This file maintains the Scratch's machine summaries: the per-pod and
// per-leaf availability views the search kernels read instead of re-querying
// the state for every (nL, pod) factorization, plus the cross-pod histograms
// behind the admissibility bounds of DESIGN.md §15.
//
// The summaries describe one (state, demand) pair, and each pod's are
// stamped with the state's PodVersion for that pod. Every mutator of the
// state moves the version of the pod it changed — rollbacks included, which
// replay through mutators and land on fresh values — so "same pointer, same
// pod version" certifies that every availability index of the pod reads
// exactly as it did when its summary was computed. A search therefore
// rebuilds only the pods that changed since the Scratch last looked at them,
// and only when it reaches them: the common two-level hit touches one pod.
// The cross-pod aggregates are kept as raw per-value counts that each pod
// rebuild corrects by the pod's old and new contribution; the histograms the
// bounds read are their suffix sums, recomputed only after some pod was
// rebuilt.

// syncState points the summaries at (st, demand). Any other pair than the
// one they describe — another state, another demand, or a Scratch fresh from
// ensure — forgets every pod; the same pair keeps them all, each to be
// checked against its pod version when a search reaches it.
func (sc *Scratch) syncState(st *topology.State, demand int32) {
	if sc.sumSt == st && sc.sumDemand == demand {
		return
	}
	sc.sumSt, sc.sumDemand = st, demand
	clear(sc.podSeen)
	clear(sc.nFreeCnt)
	clear(sc.spinePopRaw)
	sc.aggStale = true
}

// ensurePod computes pod p's summaries if the pod changed since they were
// computed (or never was): leaf free counts, uplink masks, widths, the pod's
// width histogram, its whole-leaf list, its spine masks, and its minimum
// spine popcount. One O(LeavesPerPod + L2PerPod) scan per pod change replaces
// the same scan per factorization.
func (sc *Scratch) ensurePod(p int) {
	seen := sc.sumSt.PodVersion(p) + 1
	if sc.podSeen[p] == seen {
		return
	}
	// A pod summarized before is in the raw cross-pod counts: its old
	// contribution comes out as the new one goes in.
	counted := sc.podSeen[p] != 0
	sc.podSeen[p] = seen
	t, st, demand := sc.tree, sc.sumSt, sc.sumDemand
	npl := int32(t.NodesPerLeaf)
	full := t.HalfMask()
	base := p * t.LeavesPerPod
	hist := sc.capHist[p*(t.NodesPerLeaf+2) : (p+1)*(t.NodesPerLeaf+2)]
	clear(hist)
	n := 0
	for l := 0; l < t.LeavesPerPod; l++ {
		free := int32(st.FreeInLeaf(base + l))
		up := st.LeafUpMask(base+l, demand)
		sc.lfFree[base+l] = free
		sc.lfUp[base+l] = up
		c := int32(bits.OnesCount64(up))
		if free < c {
			c = free
		}
		sc.lfCap[base+l] = c
		hist[c]++
		// Whole-leaf availability: every node free and every uplink carrying
		// at least the demand (up == full ⟺ state.WholeLeafAvailable).
		if free == npl && up == full {
			sc.freeLeaves[base+n] = l
			n++
		}
	}
	if counted {
		sc.nFreeCnt[sc.nFree[p]]--
	}
	sc.nFree[p] = n
	sc.nFreeCnt[n]++
	// hist[n] counts leaves of width >= n.
	suffixSum(hist, hist)
	sbase := p * t.L2PerPod
	spg := t.SpinesPerGroup + 2
	minPop := t.SpinesPerGroup + 1
	for i := 0; i < t.L2PerPod; i++ {
		if counted {
			sc.spinePopRaw[i*spg+bits.OnesCount64(sc.spine[sbase+i])]--
		}
		m := st.SpineMask(p, i, demand)
		sc.spine[sbase+i] = m
		pc := bits.OnesCount64(m)
		sc.spinePopRaw[i*spg+pc]++
		minPop = min(minPop, pc)
	}
	sc.minSpinePop[p] = int32(minPop)
	sc.aggStale = true
}

// ensureAggregates brings the cross-pod histograms the three-level
// factorization bounds read up to the raw counts: nFreeHist[n] counts pods
// with at least n whole-free leaves, and spinePopCnt[i][c] counts pods whose
// L2 index i has at least c free spines. Every pod must be current first.
func (sc *Scratch) ensureAggregates() {
	if !sc.aggStale {
		return
	}
	sc.aggStale = false
	suffixSum(sc.nFreeHist, sc.nFreeCnt)
	spg := sc.tree.SpinesPerGroup + 2
	for i := 0; i < sc.tree.L2PerPod; i++ {
		suffixSum(sc.spinePopCnt[i*spg:(i+1)*spg], sc.spinePopRaw[i*spg:(i+1)*spg])
	}
}

// suffixSum sets dst[n] to the sum of src[n:]; dst may be src.
func suffixSum(dst, src []int32) {
	var acc int32
	for n := len(src) - 1; n >= 0; n-- {
		acc += src[n]
		dst[n] = acc
	}
}
