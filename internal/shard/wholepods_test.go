package shard

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/topology"
)

// The whole-pod composer the coordinator used before ComposeSubPod (PR 9),
// kept as the reference TestComposeSubPodMatchesWholePodsOnFreePods compares
// against: an independent, closed-form construction of the partition that
// ComposeSubPod's search must reproduce on fully-free pods.

// ComposeWholePods builds the legal partition that packs size nodes onto the
// given fully-free pods: size/PodNodes full trees plus a remainder tree for
// the rest, every full leaf connected to all L2 switches and every L2 to one
// spine per full tree. Because the three-level geometry is square
// (NodesPerLeaf == LeavesPerPod == L2PerPod == SpinesPerGroup == k/2), the
// canonical index sets S = {0..NL-1} and SpineSet[i] = {0..LT-1} always
// satisfy conditions 1-6; Verify is still run once as a guard. The caller
// provides exactly ceil(size/PodNodes) pods and guarantees they are fully
// free on the states the placement will be mirrored to.
func ComposeWholePods(t *topology.FatTree, pods []int, size int) (*partition.Partition, error) {
	pn := t.PodNodes()
	if size < pn {
		// Sub-pod jobs are single-cell by construction (every cell is at
		// least one pod); this path only ever composes wider-than-a-pod
		// shapes, whose NL/LT are the full-geometry constants.
		return nil, fmt.Errorf("shard: size %d below whole-pod granularity %d", size, pn)
	}
	full, rem := size/pn, size%pn
	need := full
	if rem > 0 {
		need++
	}
	if len(pods) != need {
		return nil, fmt.Errorf("shard: %d pods for size %d (need %d)", len(pods), size, need)
	}
	nl, lt := t.NodesPerLeaf, t.LeavesPerPod
	p := &partition.Partition{NL: nl, LT: lt, S: iota0(nl)}
	for i := 0; i < full; i++ {
		tr := partition.TreeAlloc{Pod: pods[i]}
		for l := 0; l < lt; l++ {
			tr.Leaves = append(tr.Leaves, partition.LeafAlloc{Leaf: l, N: nl})
		}
		p.Trees = append(p.Trees, tr)
	}
	lrT, remLeaf := rem/nl, rem%nl
	if rem > 0 {
		tr := partition.TreeAlloc{Pod: pods[full], Remainder: full > 0}
		for l := 0; l < lrT; l++ {
			tr.Leaves = append(tr.Leaves, partition.LeafAlloc{Leaf: l, N: nl})
		}
		if remLeaf > 0 {
			tr.Leaves = append(tr.Leaves, partition.LeafAlloc{Leaf: lrT, N: remLeaf})
			p.Sr = iota0(remLeaf)
		}
		p.Trees = append(p.Trees, tr)
	}
	if p.MultiTree() {
		p.SpineSet = make(map[int][]int, nl)
		for _, i := range p.S {
			p.SpineSet[i] = iota0(lt)
		}
		if rem > 0 && full > 0 {
			p.SpineSetR = make(map[int][]int, nl)
			for _, i := range p.S {
				n := lrT
				if i < remLeaf {
					n++
				}
				p.SpineSetR[i] = iota0(n)
			}
		}
	}
	if err := p.Verify(t); err != nil {
		return nil, fmt.Errorf("shard: composed partition illegal: %w", err)
	}
	return p, nil
}
