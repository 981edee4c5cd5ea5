package shard

// Sub-pod cross-shard composition: build a legal Section 3.2 partition for a
// wide job out of *partially free* pods, taking whole fully-free leaves at
// sub-pod granularity instead of demanding entire pods. The input is the
// per-pod free summaries the lanes publish with their RCU snapshots
// (topology.PodSummary), so the whole search runs on read-side data — no
// engine is held while it runs, and an infeasible answer costs nothing but
// this function call (DESIGN.md §16).
//
// Shape searched: for LT from LeavesPerPod down to 1, pack the job's
// size/NL full leaves into T = floor/LT full trees of LT leaves each, plus
// (when leaves or nodes remain) one remainder tree of LrT = F mod LT full
// leaves and an up-to-(NL-1)-node remainder leaf. Smaller LT trades spine
// diversity for per-pod leaf requirements, so descending LT visits the
// least-fragmented legal shape first and only relaxes as fragmentation
// forces it to.
//
// Spine/L2 compatibility: condition 5 requires L2 switch i of every full
// tree to use the same spine set SpineSet[i] of size LT. The selection
// keeps a running AND of the candidate pods' per-L2 spine-free masks and
// skips any pod that would drop a group's popcount below LT, so whatever
// pods end up chosen always share LT common free spines per group. A
// fully-free pod has a full mask and can never shrink the AND below LT,
// which is what makes the search strictly more powerful than the whole-pod
// path: whenever ceil(size/PodNodes) fully-free pods exist (the old path's
// only success condition), they are all eligible at LT = LeavesPerPod and
// unconditionally acceptable, so the greedy always completes — and on an
// all-fully-free candidate set it reproduces the whole-pod path's partition
// exactly (the property and differential tests in subpod_test.go pin both,
// against the reference kept in wholepods_test.go).

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/partition"
	"repro/internal/topology"
)

// spineMaskOf returns the candidate's free-spine mask for L2 group i; a nil
// SpineFree slice means every spine uplink is at full residual.
func spineMaskOf(c *topology.PodSummary, i int, halfMask uint64) uint64 {
	if c.SpineFree == nil {
		return halfMask
	}
	return c.SpineFree[i]
}

// lowestBits returns the indices of the m lowest set bits of mask.
func lowestBits(mask uint64, m int) []int {
	out := make([]int, 0, m)
	for mask != 0 && len(out) < m {
		b := bits.TrailingZeros64(mask)
		out = append(out, b)
		mask &^= 1 << b
	}
	return out
}

// ComposeSubPod builds a legal partition for size nodes from the candidate
// pods' fully-free leaves, or errors when no shape fits ("infeasible" — the
// normal wait-for-capacity answer, not a fault). Candidates may appear in
// any order and may be partially occupied; only their fully-free leaves and
// full-residual spine uplinks are ever used, so a placement derived from the
// result charges nothing the summaries did not report free. It assumes the
// square three-level geometry (NodesPerLeaf == LeavesPerPod == L2PerPod ==
// SpinesPerGroup), which is what makes S = {0..NL-1} always legal for full
// leaves.
func ComposeSubPod(t *topology.FatTree, cands []topology.PodSummary, size int) (*partition.Partition, error) {
	nl, ltMax := t.NodesPerLeaf, t.LeavesPerPod
	if size < nl {
		return nil, fmt.Errorf("shard: size %d below sub-pod granularity %d (one full leaf)", size, nl)
	}
	fullLeaves, rem := size/nl, size%nl

	// Best-fit order: fewest free leaves first, so partially-free pods are
	// consumed before fully-free ones (which the next wide job may need
	// whole), pod index as the deterministic tiebreak.
	order := make([]int, 0, len(cands))
	for ci := range cands {
		if cands[ci].FreeLeaves > 0 {
			order = append(order, ci)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := &cands[order[a]], &cands[order[b]]
		if ca.FreeLeaves != cb.FreeLeaves {
			return ca.FreeLeaves < cb.FreeLeaves
		}
		return ca.Pod < cb.Pod
	})

	halfMask := t.HalfMask()
	if ltMax > fullLeaves {
		ltMax = fullLeaves
	}
	for lt := ltMax; lt >= 1; lt-- {
		full := fullLeaves / lt
		lrT := fullLeaves % lt
		needR := lrT // fully-free leaves the remainder tree takes
		if rem > 0 {
			needR++
		}
		pods := full
		if needR > 0 {
			pods++
		}
		if pods > len(order) || pods > t.Pods {
			continue
		}
		if p := composeAtLT(t, cands, order, size, nl, lt, full, lrT, rem, needR, halfMask); p != nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("shard: no sub-pod composition for size %d over %d candidate pods", size, len(cands))
}

// composeAtLT attempts the selection for one tree width. It returns nil when
// the candidates cannot support the shape (the caller tries the next LT).
func composeAtLT(t *topology.FatTree, cands []topology.PodSummary, order []int,
	size, nl, lt, full, lrT, rem, needR int, halfMask uint64) *partition.Partition {
	groups := t.L2PerPod
	multi := full+boolInt(needR > 0) > 1

	// Greedy full-tree selection with spine-compatibility skipping: accept a
	// pod only if ANDing its masks keeps >= lt common free spines per group.
	and := make([]uint64, groups)
	for i := range and {
		and[i] = halfMask
	}
	chosen := make([]int, 0, full)
	used := make([]bool, len(cands))
	for _, ci := range order {
		if len(chosen) == full {
			break
		}
		c := &cands[ci]
		if c.FreeLeaves < lt {
			continue
		}
		if multi {
			ok := true
			for i := 0; i < groups; i++ {
				if bits.OnesCount64(and[i]&spineMaskOf(c, i, halfMask)) < lt {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i := 0; i < groups; i++ {
				and[i] &= spineMaskOf(c, i, halfMask)
			}
		}
		chosen = append(chosen, ci)
		used[ci] = true
	}
	if len(chosen) < full {
		return nil
	}

	p := &partition.Partition{NL: nl, LT: lt, S: iota0(nl)}
	if multi {
		p.SpineSet = make(map[int][]int, nl)
		for _, i := range p.S {
			p.SpineSet[i] = lowestBits(and[i], lt)
		}
	}
	for _, ci := range chosen {
		tr := partition.TreeAlloc{Pod: cands[ci].Pod}
		for _, l := range lowestBits(cands[ci].LeafMask, lt) {
			tr.Leaves = append(tr.Leaves, partition.LeafAlloc{Leaf: l, N: nl})
		}
		p.Trees = append(p.Trees, tr)
	}

	if needR > 0 {
		// Remainder tree: needs needR fully-free leaves and, per group, a
		// spine subset of SpineSet[i] sized to its downlink count — strictly
		// weaker than joining the full-tree AND, so pods too contended to
		// carry a full tree can still host the remainder.
		ri := -1
		var rSpine map[int][]int
		for _, ci := range order {
			if used[ci] || cands[ci].FreeLeaves < needR {
				continue
			}
			if !multi {
				ri = ci
				break
			}
			sets := make(map[int][]int, nl)
			ok := true
			for _, i := range p.S {
				want := lrT
				if i < rem { // Sr = {0..rem-1}
					want++
				}
				m := spineMaskOf(&cands[ci], i, halfMask) & maskOfSet(p.SpineSet[i])
				if bits.OnesCount64(m) < want {
					ok = false
					break
				}
				sets[i] = lowestBits(m, want)
			}
			if ok {
				ri, rSpine = ci, sets
				break
			}
		}
		if ri < 0 {
			return nil
		}
		tr := partition.TreeAlloc{Pod: cands[ri].Pod, Remainder: full > 0}
		leaves := lowestBits(cands[ri].LeafMask, needR)
		for k, l := range leaves {
			n := nl
			if rem > 0 && k == len(leaves)-1 {
				n = rem
			}
			tr.Leaves = append(tr.Leaves, partition.LeafAlloc{Leaf: l, N: n})
		}
		if rem > 0 {
			p.Sr = iota0(rem)
		}
		p.Trees = append(p.Trees, tr)
		if multi {
			p.SpineSetR = rSpine
		}
	}

	if err := p.Verify(t); err != nil {
		// Construction and Verify disagreeing is a bug, not fragmentation;
		// refuse to emit an illegal partition.
		return nil
	}
	return p
}

// maskOfSet converts an index list to a bitmask.
func maskOfSet(idx []int) uint64 {
	var m uint64
	for _, i := range idx {
		m |= 1 << i
	}
	return m
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
