// Package partition represents structured network partitions — the node and
// link allocations the Jigsaw paper's formal conditions (Section 3.2)
// describe — and verifies those conditions.
//
// A partition spans T full two-level trees ("pods") holding LT full leaves
// of NL nodes each, plus an optional remainder tree with LrT full leaves and
// an optional remainder leaf of NrL < NL nodes. All full leaves connect to
// the same set S of L2 indices (|S| = NL); the remainder leaf connects to
// Sr ⊂ S (|Sr| = NrL). For multi-tree partitions, L2 switch i ∈ S of every
// full tree connects to the same spine set SpineSet[i] (size LT) within
// spine group i, and the remainder tree's L2 i connects to a subset
// SpineSetR[i] ⊆ SpineSet[i] sized to its downlink count.
package partition

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/topology"
)

// LeafAlloc records the nodes a partition takes on one leaf switch.
type LeafAlloc struct {
	// Leaf is the leaf index within its pod.
	Leaf int
	// N is the number of nodes allocated on the leaf.
	N int
}

// TreeAlloc records one two-level tree (pod) of a partition.
type TreeAlloc struct {
	// Pod is the pod index in the fat-tree.
	Pod int
	// Leaves lists the allocated leaves. The remainder leaf, if any, is
	// last.
	Leaves []LeafAlloc
	// Remainder marks the (single, last) remainder tree of a multi-tree
	// partition. A single-tree partition leaves this false even if the
	// tree holds a remainder leaf.
	Remainder bool
}

// Partition is a structured allocation satisfying (or to be checked against)
// the paper's formal conditions.
type Partition struct {
	// NL is the number of nodes on each full leaf.
	NL int
	// LT is the number of full leaves in each full tree.
	LT int
	// S is the sorted set of L2 indices every full leaf connects to
	// (|S| == NL).
	S []int
	// Sr is the sorted subset of S the remainder leaf connects to
	// (|Sr| == remainder leaf node count). Nil when there is no remainder
	// leaf.
	Sr []int
	// SpineSet maps L2 index i ∈ S to the sorted spine indices (within
	// group i) used by full trees (each of size LT). Nil for single-tree
	// partitions, which use no spine links.
	SpineSet map[int][]int
	// SpineSetR maps L2 index i ∈ S to the spine subset used by the
	// remainder tree. Nil when there is no remainder tree.
	SpineSetR map[int][]int
	// Trees lists the allocated trees; the remainder tree, if any, is last.
	Trees []TreeAlloc
}

// Clone returns a deep copy sharing no memory with p. The search kernels in
// internal/core return partitions that alias their reusable Scratch buffers
// (valid only until the next search on that scratch); callers that retain a
// partition beyond that window clone it first.
func (p *Partition) Clone() *Partition {
	q := *p
	if p.S != nil {
		q.S = append(make([]int, 0, len(p.S)), p.S...)
	}
	if p.Sr != nil {
		q.Sr = append(make([]int, 0, len(p.Sr)), p.Sr...)
	}
	if p.SpineSet != nil {
		q.SpineSet = make(map[int][]int, len(p.SpineSet))
		for k, v := range p.SpineSet {
			q.SpineSet[k] = append(make([]int, 0, len(v)), v...)
		}
	}
	if p.SpineSetR != nil {
		q.SpineSetR = make(map[int][]int, len(p.SpineSetR))
		for k, v := range p.SpineSetR {
			q.SpineSetR[k] = append(make([]int, 0, len(v)), v...)
		}
	}
	if p.Trees != nil {
		q.Trees = make([]TreeAlloc, len(p.Trees))
		for i, tr := range p.Trees {
			q.Trees[i] = tr
			q.Trees[i].Leaves = append(make([]LeafAlloc, 0, len(tr.Leaves)), tr.Leaves...)
		}
	}
	return &q
}

// Size returns the total number of nodes in the partition.
func (p *Partition) Size() int {
	n := 0
	for _, t := range p.Trees {
		for _, l := range t.Leaves {
			n += l.N
		}
	}
	return n
}

// FullTrees returns the number of non-remainder trees.
func (p *Partition) FullTrees() int {
	n := len(p.Trees)
	if n > 0 && p.Trees[n-1].Remainder {
		n--
	}
	return n
}

// MultiTree reports whether the partition spans more than one tree (and thus
// needs spine links).
func (p *Partition) MultiTree() bool { return len(p.Trees) > 1 }

// RemainderLeaf returns the node count of the partition's remainder leaf, or
// zero if every allocated leaf is full.
func (p *Partition) RemainderLeaf() int {
	if len(p.Trees) == 0 {
		return 0
	}
	last := p.Trees[len(p.Trees)-1]
	ll := last.Leaves[len(last.Leaves)-1]
	if ll.N < p.NL {
		return ll.N
	}
	return 0
}

// maskOf converts an index list to a bitmask.
func maskOf(idx []int) uint64 {
	var m uint64
	for _, i := range idx {
		m |= 1 << i
	}
	return m
}

// subset reports whether a ⊆ b as index sets.
func subset(a, b []int) bool { return maskOf(a)&^maskOf(b) == 0 }

func dup(idx []int) bool { return bits.OnesCount64(maskOf(idx)) != len(idx) }

// Verify checks the partition against the formal conditions of Section 3.2
// for the given tree geometry, returning a descriptive error for the first
// violated condition. A nil error means the partition is a legal
// full-bandwidth, isolated allocation shape (whether the underlying links
// are actually free is the allocation state's concern, not Verify's).
func (p *Partition) Verify(t *topology.FatTree) error {
	if len(p.Trees) == 0 {
		return fmt.Errorf("partition: empty")
	}
	if p.NL < 1 || p.NL > t.NodesPerLeaf {
		return fmt.Errorf("partition: NL=%d out of range", p.NL)
	}
	if p.LT < 1 || p.LT > t.LeavesPerPod {
		return fmt.Errorf("partition: LT=%d out of range", p.LT)
	}
	if len(p.S) != p.NL {
		return fmt.Errorf("partition: |S|=%d != NL=%d (leaf up/down balance)", len(p.S), p.NL)
	}
	if !sort.IntsAreSorted(p.S) || dup(p.S) {
		return fmt.Errorf("partition: S not a sorted set")
	}
	for _, i := range p.S {
		if i < 0 || i >= t.L2PerPod {
			return fmt.Errorf("partition: L2 index %d out of range", i)
		}
	}

	full := p.FullTrees()
	if full == 0 {
		return fmt.Errorf("partition: no full trees (a lone tree must not be marked remainder)")
	}
	single := len(p.Trees) == 1
	remN := 0 // remainder leaf node count
	lrT := -1 // full leaves in the remainder tree
	podsSeen := map[int]bool{}
	for ti, tr := range p.Trees {
		if tr.Pod < 0 || tr.Pod >= t.Pods {
			return fmt.Errorf("partition: pod %d out of range", tr.Pod)
		}
		if podsSeen[tr.Pod] {
			return fmt.Errorf("partition: pod %d used twice", tr.Pod)
		}
		podsSeen[tr.Pod] = true
		if tr.Remainder && ti != len(p.Trees)-1 {
			return fmt.Errorf("partition: remainder tree must be last")
		}
		if len(tr.Leaves) == 0 {
			return fmt.Errorf("partition: tree %d has no leaves", ti)
		}
		allowRemLeaf := tr.Remainder || single
		countFull := 0
		treeRemN := 0
		leavesSeen := map[int]bool{}
		for li, lf := range tr.Leaves {
			if lf.Leaf < 0 || lf.Leaf >= t.LeavesPerPod {
				return fmt.Errorf("partition: leaf %d out of range", lf.Leaf)
			}
			if leavesSeen[lf.Leaf] {
				return fmt.Errorf("partition: leaf %d used twice in pod %d", lf.Leaf, tr.Pod)
			}
			leavesSeen[lf.Leaf] = true
			switch {
			case lf.N == p.NL:
				countFull++
			case lf.N > 0 && lf.N < p.NL && li == len(tr.Leaves)-1 && allowRemLeaf:
				treeRemN = lf.N
			default:
				return fmt.Errorf("partition: leaf with %d nodes violates even-distribution (condition 2/3, NL=%d)", lf.N, p.NL)
			}
		}
		if tr.Remainder {
			lrT = countFull
			remN = treeRemN
			// nrT < nT: LrT*NL + remN < LT*NL.
			if countFull*p.NL+treeRemN >= p.LT*p.NL {
				return fmt.Errorf("partition: remainder tree size %d not smaller than full tree size %d (condition 1)", countFull*p.NL+treeRemN, p.LT*p.NL)
			}
			if countFull == 0 && treeRemN == 0 {
				return fmt.Errorf("partition: empty remainder tree")
			}
		} else {
			if countFull != p.LT {
				return fmt.Errorf("partition: full tree has %d full leaves, want LT=%d (condition 2)", countFull, p.LT)
			}
			if treeRemN > 0 {
				if !single {
					return fmt.Errorf("partition: remainder leaf outside remainder tree (condition 3)")
				}
				remN = treeRemN
			}
		}
	}

	// Remainder leaf / Sr consistency (condition 4).
	if remN > 0 {
		if len(p.Sr) != remN {
			return fmt.Errorf("partition: |Sr|=%d != remainder leaf size %d (condition 4)", len(p.Sr), remN)
		}
		if dup(p.Sr) || !subset(p.Sr, p.S) {
			return fmt.Errorf("partition: Sr not a subset of S (condition 4)")
		}
	} else if len(p.Sr) != 0 {
		return fmt.Errorf("partition: Sr set without remainder leaf")
	}

	// Spine conditions (5)/(6) for multi-tree partitions.
	if p.MultiTree() {
		if p.SpineSet == nil {
			return fmt.Errorf("partition: multi-tree partition missing spine sets (condition 6)")
		}
		for _, i := range p.S {
			ss, ok := p.SpineSet[i]
			if !ok {
				return fmt.Errorf("partition: L2 %d missing spine set (condition 5)", i)
			}
			if len(ss) != p.LT {
				return fmt.Errorf("partition: L2 %d spine set size %d != LT=%d (L2 up/down balance)", i, len(ss), p.LT)
			}
			for _, sp := range ss {
				if sp < 0 || sp >= t.SpinesPerGroup {
					return fmt.Errorf("partition: spine %d out of range in group %d", sp, i)
				}
			}
			if dup(ss) {
				return fmt.Errorf("partition: duplicate spine in group %d", i)
			}
		}
		if lrT >= 0 { // remainder tree present
			if p.SpineSetR == nil {
				return fmt.Errorf("partition: remainder tree missing spine subsets (condition 6)")
			}
			srMask := maskOf(p.Sr)
			for _, i := range p.S {
				want := lrT
				if remN > 0 && srMask&(1<<i) != 0 {
					want++
				}
				got := p.SpineSetR[i]
				if len(got) != want {
					return fmt.Errorf("partition: remainder L2 %d spine subset size %d != downlink count %d (condition 6)", i, len(got), want)
				}
				if dup(got) || !subset(got, p.SpineSet[i]) {
					return fmt.Errorf("partition: remainder spine subset not within S*_%d (condition 6)", i)
				}
			}
		} else if p.SpineSetR != nil {
			return fmt.Errorf("partition: spine subsets without remainder tree")
		}
	} else if p.SpineSet != nil || p.SpineSetR != nil {
		return fmt.Errorf("partition: single-tree partition must not allocate spine links")
	}
	return nil
}

// Placement converts the partition into the flat Placement that charges the
// allocation against a topology.State: NL (or remainder-count) nodes per
// leaf, leaf uplinks to S (Sr for the remainder leaf), and — for multi-tree
// partitions — spine uplinks per SpineSet/SpineSetR.
func (p *Partition) Placement(t *topology.FatTree, job topology.JobID, demand int32) *topology.Placement {
	pl := topology.NewPlacement(job, demand)
	// Size the three slices once from the partition's shape (upper bounds: a
	// remainder leaf or tree takes fewer) instead of growing them per append.
	leaves := 0
	for _, tr := range p.Trees {
		leaves += len(tr.Leaves)
	}
	if n := leaves * p.NL; n > 0 {
		pl.Nodes = make([]topology.NodeID, 0, n)
	}
	if n := leaves * len(p.S); n > 0 {
		pl.LeafUps = make([]topology.LeafUpRef, 0, n)
	}
	if p.MultiTree() {
		spines := 0
		for _, i := range p.S {
			spines += len(p.SpineSet[i])
		}
		if n := len(p.Trees) * spines; n > 0 {
			pl.SpineUps = make([]topology.SpineUpRef, 0, n)
		}
	}
	for _, tr := range p.Trees {
		for _, lf := range tr.Leaves {
			leafIdx := t.LeafIndex(tr.Pod, lf.Leaf)
			pl.AddLeafNodes(leafIdx, lf.N)
			ups := p.S
			if lf.N < p.NL {
				ups = p.Sr
			}
			for _, i := range ups {
				pl.AddLeafUp(leafIdx, i)
			}
		}
		if p.MultiTree() {
			set := p.SpineSet
			if tr.Remainder {
				set = p.SpineSetR
			}
			for _, i := range p.S {
				for _, sp := range set[i] {
					pl.AddSpineUp(tr.Pod, i, sp)
				}
			}
		}
	}
	return pl
}
