// Package topology models full (maximal-size) three-level fat-tree networks
// and the allocation state of their nodes and links.
//
// A full three-level fat-tree built from uniform radix-k switches (k even)
// consists of k two-level subtrees ("pods", the paper's "trees"), each with
// k/2 leaf switches and k/2 L2 switches, and (k/2)^2 spine switches. Each
// leaf switch serves k/2 compute nodes and has one uplink to every L2 switch
// in its pod. The spines are partitioned into k/2 groups of k/2 spines; L2
// switch i of every pod connects to exactly the spines of group i, one link
// per spine. Group i together with the i-th L2 switch of every pod forms the
// full-bipartite partition the Jigsaw paper calls T*_i.
//
// The node count is k*(k/2)^2: radix 16 gives 1024 nodes, 18 gives 1458,
// 22 gives 2662, and 28 gives 5488 — the four cluster sizes evaluated in the
// paper (Section 5.1).
package topology

import "fmt"

// NodeID identifies a compute node. Nodes are numbered consecutively:
// pod-major, then leaf, then slot within the leaf.
type NodeID int32

// JobID identifies a job for ownership accounting. Zero means "free".
type JobID int64

// FatTree describes the geometry of a full three-level fat-tree built from
// radix-Radix switches. All fields are derived from the radix; construct
// instances with New.
type FatTree struct {
	// Radix is the switch port count k. It must be even and at least 4.
	Radix int
	// Pods is the number of two-level subtrees (equal to Radix in a full
	// tree).
	Pods int
	// LeavesPerPod is the number of leaf switches per pod (Radix/2).
	LeavesPerPod int
	// NodesPerLeaf is the number of compute nodes per leaf switch (Radix/2).
	NodesPerLeaf int
	// L2PerPod is the number of second-level switches per pod (Radix/2).
	L2PerPod int
	// SpinesPerGroup is the number of spines in each group (Radix/2). There
	// are L2PerPod groups, one per L2 index.
	SpinesPerGroup int

	// leafPod maps a global leaf index to its pod: every State mutator needs
	// the pod it changed (State.touch), and a table read is several times
	// cheaper than the integer division it replaces.
	leafPod []int32
}

// New returns the full three-level fat-tree built from switches of the given
// radix. The radix must be even and at least 4.
func New(radix int) (*FatTree, error) {
	if radix < 4 || radix%2 != 0 {
		return nil, fmt.Errorf("topology: radix must be even and >= 4, got %d", radix)
	}
	if radix > 128 {
		// Per-leaf and per-group bitmasks are uint64; radix/2 must fit.
		return nil, fmt.Errorf("topology: radix %d exceeds supported maximum 128", radix)
	}
	h := radix / 2
	t := &FatTree{
		Radix:          radix,
		Pods:           radix,
		LeavesPerPod:   h,
		NodesPerLeaf:   h,
		L2PerPod:       h,
		SpinesPerGroup: h,
		leafPod:        make([]int32, radix*h),
	}
	for l := range t.leafPod {
		t.leafPod[l] = int32(l / h)
	}
	return t, nil
}

// MustNew is like New but panics on error. It is intended for tests and
// examples with known-good radices.
func MustNew(radix int) *FatTree {
	t, err := New(radix)
	if err != nil {
		panic(err)
	}
	return t
}

// HalfMask returns a bitmask with Radix/2 low bits set. Per-leaf node-slot
// masks, per-leaf uplink masks, and per-group spine masks are all this wide;
// New rejects radices above 128, so the mask always fits a uint64 (and the
// shift below is never negative).
func (t *FatTree) HalfMask() uint64 {
	if t.LeavesPerPod >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<t.LeavesPerPod - 1
}

// Nodes returns the total number of compute nodes in the tree.
func (t *FatTree) Nodes() int { return t.Pods * t.LeavesPerPod * t.NodesPerLeaf }

// PodNodes returns the number of compute nodes in one pod.
func (t *FatTree) PodNodes() int { return t.LeavesPerPod * t.NodesPerLeaf }

// Leaves returns the total number of leaf switches in the tree.
func (t *FatTree) Leaves() int { return t.Pods * t.LeavesPerPod }

// Spines returns the total number of spine switches in the tree.
func (t *FatTree) Spines() int { return t.L2PerPod * t.SpinesPerGroup }

// LeafIndex returns the global index of the given leaf within the tree.
func (t *FatTree) LeafIndex(pod, leaf int) int { return pod*t.LeavesPerPod + leaf }

// LeafPod returns the pod that a global leaf index belongs to.
func (t *FatTree) LeafPod(leafIdx int) int { return int(t.leafPod[leafIdx]) }

// LeafInPod returns the within-pod index of a global leaf index.
func (t *FatTree) LeafInPod(leafIdx int) int { return leafIdx % t.LeavesPerPod }

// Node returns the NodeID of the node in the given pod, leaf, and slot.
func (t *FatTree) Node(pod, leaf, slot int) NodeID {
	return NodeID((pod*t.LeavesPerPod+leaf)*t.NodesPerLeaf + slot)
}

// NodePod returns the pod containing node n.
func (t *FatTree) NodePod(n NodeID) int { return int(n) / t.PodNodes() }

// NodeLeaf returns the global leaf index of node n.
func (t *FatTree) NodeLeaf(n NodeID) int { return int(n) / t.NodesPerLeaf }

// NodeSlot returns the slot of node n within its leaf.
func (t *FatTree) NodeSlot(n NodeID) int { return int(n) % t.NodesPerLeaf }

// String returns a short human-readable description of the tree.
func (t *FatTree) String() string {
	return fmt.Sprintf("fat-tree(radix=%d, pods=%d, nodes=%d)", t.Radix, t.Pods, t.Nodes())
}
