package topology

import (
	"fmt"
	"math/bits"
	"slices"
)

// State tracks the allocation status of every node and every isolatable link
// of a fat-tree.
//
// Links are modelled with integer residual capacity so that the same state
// machinery serves both the isolating schedulers (capacity 1, demand 1: a
// link belongs to at most one job) and the LC+S bounding scheduler, which
// shares links fractionally (capacity in bandwidth units, per-job demands
// below it). Two link classes matter for isolation:
//
//   - leaf uplinks: one per (leaf, L2 index) pair within a pod;
//   - spine uplinks: one per (pod, L2 index, spine-in-group) triple.
//
// Node-to-leaf links are dedicated per node and never shared, so they are
// represented implicitly by node ownership.
//
// # Availability indices
//
// The residual arrays (nodeOwner, leafUp, spineUp) are the ground truth; on
// top of them the State maintains incremental availability indices so the
// allocation search never rescans raw residuals on its hot path:
//
//   - upFull: per leaf, the bitmask of L2 indices whose uplink is untouched
//     (residual == Capacity);
//   - spineFull: per (pod, L2 index), the bitmask of untouched spine uplinks;
//   - leafFull: per leaf, whether the whole leaf is untouched (every node
//     free and every uplink at full residual);
//   - podFullLeaves / podFree: per pod, the count of untouched leaves and the
//     total free-node count;
//   - podSpineBusy: per pod, the count of spine uplinks below full residual.
//
// Every take/return mutator updates the indices in O(changed links/nodes),
// Clone copies them, and CheckInvariants audits them against a ground-truth
// recomputation. For the isolating schedulers (Capacity 1) every
// availability query is answered directly from the indices; the link-sharing
// schedulers fall back to scanning only the links the indices mark as
// partially used.
//
// # Transactions
//
// Begin/Rollback/Commit provide snapshot-free what-if analysis: Begin starts
// an undo journal, the mutators append one entry per changed node or link
// (O(changed entries), not O(tree)), Rollback replays the journal in reverse
// through the same mutators — restoring residuals, ownership, and every
// availability index exactly — and Commit discards the journal. The EASY
// scheduler's reservation and backfill displacement checks run inside such
// transactions on the live state instead of deep-cloning it.
//
// # Version counters
//
// Version() is a monotone mutation counter, and PodVersion(p) is the value it
// had when pod p last changed. Every take/return mutator goes through one
// touch(pod): it bumps the counter and stamps the pod it changed, so two reads
// of Version() returning the same value bracket a window in which the state
// provably did not change, and two reads of PodVersion(p) bracket a window in
// which pod p did not. Failure specs, cell restriction and Rollback all work
// through the mutators, so they need no code of their own here: a spine-switch
// spec touches every pod of the cell, and Rollback touches each pod once per
// undone entry — a restored pod reports a version it never reported before,
// which is conservative and always safe for consumers that cache "size N
// failed at version V" verdicts (internal/engine's feasibility memo) or
// per-pod summaries (internal/core's Scratch, internal/snapshot's pod
// summaries). Clone copies both (the copies then advance independently).
//
// The zero State is not usable; construct with NewState. State is not safe
// for concurrent use.
type State struct {
	Tree *FatTree
	// Capacity is the initial residual of every link, in arbitrary
	// bandwidth units. Isolating schedulers use 1.
	Capacity int32

	nodeOwner []JobID  // per node; 0 = free
	freeNode  []uint64 // per leaf: bitmask of free slots
	freeCnt   []int32  // per leaf: number of free slots
	leafUp    []int32  // residual per (leafIdx*L2PerPod + i)
	spineUp   []int32  // residual per ((pod*L2PerPod + i)*SpinesPerGroup + s)
	freeTotal int      // total free nodes

	// Incremental availability indices (see the type comment).
	upFull        []uint64 // per leaf: L2 indices with residual == Capacity
	spineFull     []uint64 // per (pod*L2PerPod + i): spines with residual == Capacity
	leafFull      []bool   // per leaf: all nodes free and all uplinks untouched
	podFullLeaves []int32  // per pod: count of leafFull leaves
	podFree       []int32  // per pod: total free nodes
	podSpineBusy  []int32  // per pod: spine uplinks below full residual

	// Failure bookkeeping (see failure.go): the active failure specs in
	// injection order, nil while healthy, and how many nodes, leaf uplinks
	// and spine uplinks they hold (indexed by the primitive FailureKinds).
	// What is failed is derived from the specs; the arrays above account for
	// it as ownership by FailedOwner and as consumed residual.
	failures    []Failure
	failedCount [FailureSpineUplink + 1]int

	// scanQueries forces every availability query to recompute its answer
	// from the raw residuals instead of the indices. The differential tests
	// use it to pin the indexed implementation bit-for-bit against the scan
	// implementation; production code never sets it.
	scanQueries bool

	// Undo-journal transaction support (Begin/Rollback/Commit). While a
	// transaction is active every take/return mutator appends its delta to
	// the journal in O(1); Rollback replays the journal in reverse through
	// the same mutators, so the availability indices are restored by the
	// exact inverse operations and never drift.
	txnActive bool
	journal   []journalEntry

	// version is the monotone mutation counter behind Version(), and
	// podVer[p] the value it had when pod p last changed. Only touch writes
	// either; every take/return mutator calls it (including the undo
	// mutators Rollback replays, which is what makes a rolled-back pod report
	// a fresh, never-before-seen version).
	version uint64
	podVer  []uint64

	// cellLo/cellHi bound the pod range this state schedules when it has
	// been restricted to a cell (see cell.go); cellHi == 0 means
	// unrestricted. Cell-spanning failure kinds (spine-switch) apply only to
	// in-range pods.
	cellLo, cellHi int
}

// journalEntry is one recorded mutation. Node entries carry the owner needed
// to re-take a returned node; link entries carry the signed residual delta
// that was applied (negative = taken).
type journalEntry struct {
	op    uint8
	idx   int32
	delta int32
	owner JobID
}

// Journal operation kinds.
const (
	opNodeTake   uint8 = iota // node idx was taken; undo by returning it
	opNodeReturn              // node idx was returned; undo by re-taking for owner
	opLeafUp                  // leafUp[idx] += delta; undo by applying -delta
	opSpineUp                 // spineUp[idx] += delta; undo by applying -delta
)

// NewState returns a fully-free allocation state for the tree with the given
// per-link capacity (use 1 for isolating schedulers).
func NewState(tree *FatTree, capacity int32) *State {
	if capacity < 1 {
		panic(fmt.Sprintf("topology: link capacity must be >= 1, got %d", capacity))
	}
	leaves := tree.Leaves()
	s := &State{
		Tree:          tree,
		Capacity:      capacity,
		nodeOwner:     make([]JobID, tree.Nodes()),
		freeNode:      make([]uint64, leaves),
		freeCnt:       make([]int32, leaves),
		leafUp:        make([]int32, leaves*tree.L2PerPod),
		spineUp:       make([]int32, tree.Pods*tree.L2PerPod*tree.SpinesPerGroup),
		freeTotal:     tree.Nodes(),
		upFull:        make([]uint64, leaves),
		spineFull:     make([]uint64, tree.Pods*tree.L2PerPod),
		leafFull:      make([]bool, leaves),
		podFullLeaves: make([]int32, tree.Pods),
		podFree:       make([]int32, tree.Pods),
		podSpineBusy:  make([]int32, tree.Pods),
		podVer:        make([]uint64, tree.Pods),
	}
	full := tree.HalfMask()
	for l := range s.freeNode {
		s.freeNode[l] = full
		s.freeCnt[l] = int32(tree.NodesPerLeaf)
		s.upFull[l] = full
		s.leafFull[l] = true
	}
	for i := range s.leafUp {
		s.leafUp[i] = capacity
	}
	for i := range s.spineUp {
		s.spineUp[i] = capacity
	}
	for i := range s.spineFull {
		s.spineFull[i] = full
	}
	for p := 0; p < tree.Pods; p++ {
		s.podFullLeaves[p] = int32(tree.LeavesPerPod)
		s.podFree[p] = int32(tree.PodNodes())
	}
	return s
}

// Begin starts an undo-journal transaction: every subsequent mutation is
// recorded until Rollback discards it or Commit keeps it. Transactions do
// not nest; Begin panics if one is already active.
func (s *State) Begin() {
	if s.txnActive {
		panic("topology: Begin inside an active transaction")
	}
	s.txnActive = true
}

// InTxn reports whether an undo-journal transaction is active.
func (s *State) InTxn() bool { return s.txnActive }

// Rollback undoes every mutation since Begin, in reverse order, and ends the
// transaction. Undo runs through the regular take/return mutators, so the
// incremental availability indices are restored exactly. It panics if no
// transaction is active.
func (s *State) Rollback() {
	if !s.txnActive {
		panic("topology: Rollback without Begin")
	}
	// End the transaction first so the undo mutations are not re-journaled.
	s.txnActive = false
	for k := len(s.journal) - 1; k >= 0; k-- {
		e := s.journal[k]
		switch e.op {
		case opNodeTake:
			s.returnNode(NodeID(e.idx))
		case opNodeReturn:
			s.retakeNode(NodeID(e.idx), e.owner)
		case opLeafUp:
			leafIdx := int(e.idx) / s.Tree.L2PerPod
			i := int(e.idx) % s.Tree.L2PerPod
			if e.delta < 0 {
				s.returnLeafUp(leafIdx, i, -e.delta)
			} else {
				s.takeLeafUp(leafIdx, i, e.delta)
			}
		case opSpineUp:
			sp := int(e.idx) % s.Tree.SpinesPerGroup
			rest := int(e.idx) / s.Tree.SpinesPerGroup
			l2 := rest % s.Tree.L2PerPod
			pod := rest / s.Tree.L2PerPod
			if e.delta < 0 {
				s.returnSpineUp(pod, l2, sp, -e.delta)
			} else {
				s.takeSpineUp(pod, l2, sp, e.delta)
			}
		}
	}
	s.journal = s.journal[:0]
}

// Commit keeps every mutation since Begin and ends the transaction. It
// panics if no transaction is active.
func (s *State) Commit() {
	if !s.txnActive {
		panic("topology: Commit without Begin")
	}
	s.txnActive = false
	s.journal = s.journal[:0]
}

// record appends a journal entry while a transaction is active.
func (s *State) record(op uint8, idx int, delta int32, owner JobID) {
	if s.txnActive {
		s.journal = append(s.journal, journalEntry{op: op, idx: int32(idx), delta: delta, owner: owner})
	}
}

// Clone returns a deep copy of the state, for what-if searches such as EASY
// reservation computation. Cloning inside an active transaction would alias
// two views of an unfinished mutation history, so it panics.
func (s *State) Clone() *State {
	if s.txnActive {
		panic("topology: Clone inside an active transaction")
	}
	c := &State{
		Tree:          s.Tree,
		Capacity:      s.Capacity,
		nodeOwner:     append([]JobID(nil), s.nodeOwner...),
		freeNode:      append([]uint64(nil), s.freeNode...),
		freeCnt:       append([]int32(nil), s.freeCnt...),
		leafUp:        append([]int32(nil), s.leafUp...),
		spineUp:       append([]int32(nil), s.spineUp...),
		freeTotal:     s.freeTotal,
		upFull:        append([]uint64(nil), s.upFull...),
		spineFull:     append([]uint64(nil), s.spineFull...),
		leafFull:      append([]bool(nil), s.leafFull...),
		podFullLeaves: append([]int32(nil), s.podFullLeaves...),
		podFree:       append([]int32(nil), s.podFree...),
		podSpineBusy:  append([]int32(nil), s.podSpineBusy...),
		scanQueries:   s.scanQueries,
		version:       s.version,
		podVer:        append([]uint64(nil), s.podVer...),
		cellLo:        s.cellLo,
		cellHi:        s.cellHi,
		failures:      slices.Clone(s.failures),
		failedCount:   s.failedCount,
	}
	return c
}

// Version returns the state's monotone mutation counter. Equal values from
// the same State bracket a window with no mutations; a clone starts at its
// parent's value and the two advance independently afterwards, so versions
// are only comparable within one State instance.
func (s *State) Version() uint64 { return s.version }

// PodVersion returns the Version() at which pod p last changed (0 if it never
// has). It never exceeds Version(), and it is comparable only within one State
// instance, like Version.
func (s *State) PodVersion(p int) uint64 { return s.podVer[p] }

// touch records a mutation of pod p: the one place the version counters move.
func (s *State) touch(p int) {
	s.version++
	s.podVer[p] = s.version
}

// SetScanQueries forces (or stops forcing) every availability query to
// recompute from raw residuals, ignoring the incremental indices. Clones
// inherit the setting. It exists so the differential tests can pin the
// indexed implementation against the scan implementation; production code
// never calls it.
func (s *State) SetScanQueries(v bool) { s.scanQueries = v }

// FreeNodes returns the total number of unallocated nodes.
func (s *State) FreeNodes() int { return s.freeTotal }

// AllocatedNodes returns the total number of allocated nodes.
func (s *State) AllocatedNodes() int { return s.Tree.Nodes() - s.freeTotal }

// FreeInLeaf returns the number of free nodes on the given global leaf.
func (s *State) FreeInLeaf(leafIdx int) int { return int(s.freeCnt[leafIdx]) }

// FreeInPod returns the number of free nodes in the given pod.
func (s *State) FreeInPod(pod int) int {
	if s.scanQueries {
		n := 0
		base := pod * s.Tree.LeavesPerPod
		for l := 0; l < s.Tree.LeavesPerPod; l++ {
			n += int(s.freeCnt[base+l])
		}
		return n
	}
	return int(s.podFree[pod])
}

// FullyFreeLeavesInPod returns the number of leaves in the pod that are
// completely untouched (every node free, every uplink at full residual).
func (s *State) FullyFreeLeavesInPod(pod int) int {
	if s.scanQueries {
		n := 0
		base := pod * s.Tree.LeavesPerPod
		for l := 0; l < s.Tree.LeavesPerPod; l++ {
			if s.scanFullyFreeLeaf(base + l) {
				n++
			}
		}
		return n
	}
	return int(s.podFullLeaves[pod])
}

// LeafUplinksFree reports whether every uplink of the leaf carries full
// residual, i.e. no job holds (any share of) a leaf uplink here.
func (s *State) LeafUplinksFree(leafIdx int) bool {
	if s.scanQueries {
		base := leafIdx * s.Tree.L2PerPod
		for i := 0; i < s.Tree.L2PerPod; i++ {
			if s.leafUp[base+i] != s.Capacity {
				return false
			}
		}
		return true
	}
	return s.upFull[leafIdx] == s.Tree.HalfMask()
}

// PodSpinesFree reports whether every L2->spine uplink of the pod carries
// full residual, i.e. no job holds (any share of) a spine uplink here.
func (s *State) PodSpinesFree(pod int) bool {
	if s.scanQueries {
		base := pod * s.Tree.L2PerPod * s.Tree.SpinesPerGroup
		for i := 0; i < s.Tree.L2PerPod*s.Tree.SpinesPerGroup; i++ {
			if s.spineUp[base+i] != s.Capacity {
				return false
			}
		}
		return true
	}
	return s.podSpineBusy[pod] == 0
}

// FailureActive reports whether the spec is active (applied, not reverted).
func (s *State) FailureActive(f Failure) bool { return slices.Contains(s.failures, f.canonical()) }

// ActiveFailures returns a copy of the active specs in injection order.
func (s *State) ActiveFailures() []Failure { return slices.Clone(s.failures) }

// Degraded reports whether any spec is active, which by the overlap rule is
// the same as "any node or link is failed".
func (s *State) Degraded() bool { return len(s.failures) > 0 }

// FailedSwitches returns the number of active whole-switch specs.
func (s *State) FailedSwitches() (n int) {
	for _, a := range s.failures {
		if a.Kind.row().isSwitch {
			n++
		}
	}
	return n
}

// Whether one node or link is failed, and how many of each are.

func (s *State) NodeFailed(n NodeID) bool             { return s.failed(NodeFailure(n)) }
func (s *State) LeafUplinkFailed(leaf, l2 int) bool   { return s.failed(LeafUplinkFailure(leaf, l2)) }
func (s *State) SpineUplinkFailed(p, l2, sp int) bool { return s.failed(SpineUplinkFailure(p, l2, sp)) }
func (s *State) FailedNodes() int                     { return s.failedCount[FailureNode] }
func (s *State) FailedLeafUplinks() int               { return s.failedCount[FailureLeafUplink] }
func (s *State) FailedSpineUplinks() int              { return s.failedCount[FailureSpineUplink] }
func (s *State) FailedLinks() int                     { return s.FailedLeafUplinks() + s.FailedSpineUplinks() }

// Owner returns the job owning node n, or 0 if the node is free.
func (s *State) Owner(n NodeID) JobID { return s.nodeOwner[n] }

// LeafUpMask returns a bitmask over L2 indices i such that the uplink from
// the given leaf to L2 switch i has residual capacity >= demand.
func (s *State) LeafUpMask(leafIdx int, demand int32) uint64 {
	base := leafIdx * s.Tree.L2PerPod
	if s.scanQueries {
		var m uint64
		for i := 0; i < s.Tree.L2PerPod; i++ {
			if s.leafUp[base+i] >= demand {
				m |= 1 << i
			}
		}
		return m
	}
	if demand > s.Capacity {
		return 0
	}
	m := s.upFull[leafIdx]
	if demand == s.Capacity || m == s.Tree.HalfMask() {
		return m
	}
	// Link-sharing demand below capacity: scan only the partially-used links.
	for i := 0; i < s.Tree.L2PerPod; i++ {
		if m&(1<<i) == 0 && s.leafUp[base+i] >= demand {
			m |= 1 << i
		}
	}
	return m
}

// SpineMask returns a bitmask over spines-in-group s such that the uplink
// from L2 switch i of the given pod to that spine has residual >= demand.
func (s *State) SpineMask(pod, l2 int, demand int32) uint64 {
	base := (pod*s.Tree.L2PerPod + l2) * s.Tree.SpinesPerGroup
	if s.scanQueries {
		var m uint64
		for sp := 0; sp < s.Tree.SpinesPerGroup; sp++ {
			if s.spineUp[base+sp] >= demand {
				m |= 1 << sp
			}
		}
		return m
	}
	if demand > s.Capacity {
		return 0
	}
	m := s.spineFull[pod*s.Tree.L2PerPod+l2]
	if demand == s.Capacity || m == s.Tree.HalfMask() {
		return m
	}
	for sp := 0; sp < s.Tree.SpinesPerGroup; sp++ {
		if m&(1<<sp) == 0 && s.spineUp[base+sp] >= demand {
			m |= 1 << sp
		}
	}
	return m
}

// LeafUpResidual returns the residual capacity of the uplink from the given
// leaf to L2 switch i.
func (s *State) LeafUpResidual(leafIdx, i int) int32 {
	return s.leafUp[leafIdx*s.Tree.L2PerPod+i]
}

// SpineUpResidual returns the residual capacity of the uplink from L2 switch
// i of the given pod to spine sp of group i.
func (s *State) SpineUpResidual(pod, l2, sp int) int32 {
	return s.spineUp[(pod*s.Tree.L2PerPod+l2)*s.Tree.SpinesPerGroup+sp]
}

// FullyFreeLeaf reports whether every node and every uplink of the leaf is
// completely unallocated (full residual).
func (s *State) FullyFreeLeaf(leafIdx int) bool {
	if s.scanQueries {
		return s.scanFullyFreeLeaf(leafIdx)
	}
	return s.leafFull[leafIdx]
}

func (s *State) scanFullyFreeLeaf(leafIdx int) bool {
	if int(s.freeCnt[leafIdx]) != s.Tree.NodesPerLeaf {
		return false
	}
	base := leafIdx * s.Tree.L2PerPod
	for i := 0; i < s.Tree.L2PerPod; i++ {
		if s.leafUp[base+i] != s.Capacity {
			return false
		}
	}
	return true
}

// WholeLeafAvailable reports whether the leaf can serve as a whole leaf for
// a job with the given per-link bandwidth demand: every node free and every
// uplink with at least demand residual. With demand equal to the capacity
// this is exactly FullyFreeLeaf; link-sharing schemes pass smaller demands.
func (s *State) WholeLeafAvailable(leafIdx int, demand int32) bool {
	if !s.scanQueries {
		if demand > s.Capacity {
			return false
		}
		if s.leafFull[leafIdx] {
			return true
		}
		if int(s.freeCnt[leafIdx]) != s.Tree.NodesPerLeaf {
			return false
		}
		if demand == s.Capacity {
			// Nodes are all free but the leaf is not leafFull, so some
			// uplink is below full residual.
			return false
		}
	} else if int(s.freeCnt[leafIdx]) != s.Tree.NodesPerLeaf {
		return false
	}
	base := leafIdx * s.Tree.L2PerPod
	for i := 0; i < s.Tree.L2PerPod; i++ {
		if s.leafUp[base+i] < demand {
			return false
		}
	}
	return true
}

// refreshLeafFull recomputes the leaf's untouched flag from freeCnt and
// upFull after either changed, adjusting the per-pod count on transitions.
// pod is the leaf's pod, which every caller has already derived.
func (s *State) refreshLeafFull(leafIdx, pod int) {
	full := int(s.freeCnt[leafIdx]) == s.Tree.NodesPerLeaf && s.upFull[leafIdx] == s.Tree.HalfMask()
	if full == s.leafFull[leafIdx] {
		return
	}
	s.leafFull[leafIdx] = full
	if full {
		s.podFullLeaves[pod]++
	} else {
		s.podFullLeaves[pod]--
	}
}

// noteNodesTaken updates the node-side indices after n nodes left the leaf
// (of the given pod).
func (s *State) noteNodesTaken(leafIdx, pod, n int) {
	s.freeCnt[leafIdx] -= int32(n)
	s.freeTotal -= n
	s.podFree[pod] -= int32(n)
	s.refreshLeafFull(leafIdx, pod)
}

// noteNodeReturned updates the node-side indices after one node came back
// to the leaf (of the given pod).
func (s *State) noteNodeReturned(leafIdx, pod int) {
	s.freeCnt[leafIdx]++
	s.freeTotal++
	s.podFree[pod]++
	s.refreshLeafFull(leafIdx, pod)
}

// takeNodes allocates n free nodes (lowest slots first) on the leaf to job.
// It panics if fewer than n nodes are free; callers check availability first.
func (s *State) takeNodes(leafIdx, n int, job JobID) []NodeID {
	if int(s.freeCnt[leafIdx]) < n {
		panic(fmt.Sprintf("topology: leaf %d has %d free nodes, need %d", leafIdx, s.freeCnt[leafIdx], n))
	}
	pod := s.Tree.LeafPod(leafIdx)
	if n > 0 {
		s.touch(pod)
	}
	out := make([]NodeID, 0, n)
	m := s.freeNode[leafIdx]
	for k := 0; k < n; k++ {
		slot := bits.TrailingZeros64(m)
		m &^= 1 << slot
		id := NodeID(leafIdx*s.Tree.NodesPerLeaf + slot)
		s.nodeOwner[id] = job
		s.record(opNodeTake, int(id), 0, 0)
		out = append(out, id)
	}
	s.freeNode[leafIdx] = m
	s.noteNodesTaken(leafIdx, pod, n)
	return out
}

// retakeNode re-allocates a specific free node to a job, restoring the exact
// ownership a rollback or concrete re-apply needs.
func (s *State) retakeNode(n NodeID, job JobID) {
	leafIdx := int(n) / s.Tree.NodesPerLeaf
	slot := int(n) % s.Tree.NodesPerLeaf
	if s.freeNode[leafIdx]&(1<<slot) == 0 {
		panic(fmt.Sprintf("topology: node %d not free on re-take", n))
	}
	pod := s.Tree.LeafPod(leafIdx)
	s.touch(pod)
	s.freeNode[leafIdx] &^= 1 << slot
	s.nodeOwner[n] = job
	s.record(opNodeTake, int(n), 0, 0)
	s.noteNodesTaken(leafIdx, pod, 1)
}

// returnNode frees a single node.
func (s *State) returnNode(n NodeID) {
	if s.nodeOwner[n] == 0 {
		panic(fmt.Sprintf("topology: double free of node %d", n))
	}
	leafIdx := int(n) / s.Tree.NodesPerLeaf
	pod := s.Tree.LeafPod(leafIdx)
	s.touch(pod)
	s.record(opNodeReturn, int(n), 0, s.nodeOwner[n])
	s.nodeOwner[n] = 0
	slot := int(n) % s.Tree.NodesPerLeaf
	s.freeNode[leafIdx] |= 1 << slot
	s.noteNodeReturned(leafIdx, pod)
}

// takeLeafUp consumes demand units of the uplink (leafIdx -> L2 i).
func (s *State) takeLeafUp(leafIdx, i int, demand int32) {
	r := &s.leafUp[leafIdx*s.Tree.L2PerPod+i]
	if *r < demand {
		panic(fmt.Sprintf("topology: leaf %d uplink %d over-allocated (%d < %d)", leafIdx, i, *r, demand))
	}
	pod := s.Tree.LeafPod(leafIdx)
	if demand != 0 {
		s.touch(pod)
		s.record(opLeafUp, leafIdx*s.Tree.L2PerPod+i, -demand, 0)
	}
	wasFull := *r == s.Capacity
	*r -= demand
	if wasFull && demand > 0 {
		s.upFull[leafIdx] &^= 1 << i
		s.refreshLeafFull(leafIdx, pod)
	}
}

// takeSpineUp consumes demand units of the uplink (pod, L2 i -> spine sp).
func (s *State) takeSpineUp(pod, l2, sp int, demand int32) {
	r := &s.spineUp[(pod*s.Tree.L2PerPod+l2)*s.Tree.SpinesPerGroup+sp]
	if *r < demand {
		panic(fmt.Sprintf("topology: pod %d L2 %d spine %d over-allocated (%d < %d)", pod, l2, sp, *r, demand))
	}
	if demand != 0 {
		s.touch(pod)
		s.record(opSpineUp, (pod*s.Tree.L2PerPod+l2)*s.Tree.SpinesPerGroup+sp, -demand, 0)
	}
	wasFull := *r == s.Capacity
	*r -= demand
	if wasFull && demand > 0 {
		s.spineFull[pod*s.Tree.L2PerPod+l2] &^= 1 << sp
		s.podSpineBusy[pod]++
	}
}

func (s *State) returnLeafUp(leafIdx, i int, demand int32) {
	r := &s.leafUp[leafIdx*s.Tree.L2PerPod+i]
	pod := s.Tree.LeafPod(leafIdx)
	if demand != 0 {
		s.touch(pod)
		s.record(opLeafUp, leafIdx*s.Tree.L2PerPod+i, demand, 0)
	}
	*r += demand
	if *r > s.Capacity {
		panic(fmt.Sprintf("topology: leaf %d uplink %d residual %d exceeds capacity", leafIdx, i, *r))
	}
	if *r == s.Capacity && demand > 0 {
		s.upFull[leafIdx] |= 1 << i
		s.refreshLeafFull(leafIdx, pod)
	}
}

func (s *State) returnSpineUp(pod, l2, sp int, demand int32) {
	r := &s.spineUp[(pod*s.Tree.L2PerPod+l2)*s.Tree.SpinesPerGroup+sp]
	if demand != 0 {
		s.touch(pod)
		s.record(opSpineUp, (pod*s.Tree.L2PerPod+l2)*s.Tree.SpinesPerGroup+sp, demand, 0)
	}
	*r += demand
	if *r > s.Capacity {
		panic(fmt.Sprintf("topology: pod %d L2 %d spine %d residual %d exceeds capacity", pod, l2, sp, *r))
	}
	if *r == s.Capacity && demand > 0 {
		s.spineFull[pod*s.Tree.L2PerPod+l2] |= 1 << sp
		s.podSpineBusy[pod]--
	}
}

// CheckInvariants audits the state: residuals within bounds, the derived
// node bookkeeping (freeNode/freeCnt/freeTotal) consistent with nodeOwner,
// every incremental availability index equal to a ground-truth
// recomputation, and no pod version ahead of the state's. It returns the
// first mismatch found, or nil. Tests call it after every mutation; it is
// O(machine) and never used on hot paths.
func (s *State) CheckInvariants() error {
	t := s.Tree
	full := t.HalfMask()

	// Node ground truth: nodeOwner drives freeNode, freeCnt, freeTotal,
	// podFree, and the node half of leafFull.
	totalFree := 0
	for leaf := 0; leaf < t.Leaves(); leaf++ {
		var mask uint64
		cnt := 0
		for slot := 0; slot < t.NodesPerLeaf; slot++ {
			n := NodeID(leaf*t.NodesPerLeaf + slot)
			if s.nodeOwner[n] == 0 {
				mask |= 1 << slot
				cnt++
			}
		}
		if s.freeNode[leaf] != mask {
			return fmt.Errorf("leaf %d: freeNode mask %#x, owners imply %#x", leaf, s.freeNode[leaf], mask)
		}
		if int(s.freeCnt[leaf]) != cnt {
			return fmt.Errorf("leaf %d: freeCnt %d, owners imply %d", leaf, s.freeCnt[leaf], cnt)
		}
		totalFree += cnt
	}
	if s.freeTotal != totalFree {
		return fmt.Errorf("freeTotal %d, owners imply %d", s.freeTotal, totalFree)
	}

	// Link residual bounds.
	for i, r := range s.leafUp {
		if r < 0 || r > s.Capacity {
			return fmt.Errorf("leafUp[%d] residual %d outside [0, %d]", i, r, s.Capacity)
		}
	}
	for i, r := range s.spineUp {
		if r < 0 || r > s.Capacity {
			return fmt.Errorf("spineUp[%d] residual %d outside [0, %d]", i, r, s.Capacity)
		}
	}

	// Availability indices versus ground truth.
	for leaf := 0; leaf < t.Leaves(); leaf++ {
		var up uint64
		base := leaf * t.L2PerPod
		for i := 0; i < t.L2PerPod; i++ {
			if s.leafUp[base+i] == s.Capacity {
				up |= 1 << i
			}
		}
		if s.upFull[leaf] != up {
			return fmt.Errorf("leaf %d: upFull %#x, residuals imply %#x", leaf, s.upFull[leaf], up)
		}
		lf := int(s.freeCnt[leaf]) == t.NodesPerLeaf && up == full
		if s.leafFull[leaf] != lf {
			return fmt.Errorf("leaf %d: leafFull %v, ground truth %v", leaf, s.leafFull[leaf], lf)
		}
	}
	for p := 0; p < t.Pods; p++ {
		var fullLeaves, free int32
		for l := 0; l < t.LeavesPerPod; l++ {
			leaf := t.LeafIndex(p, l)
			if s.leafFull[leaf] {
				fullLeaves++
			}
			free += s.freeCnt[leaf]
		}
		if s.podFullLeaves[p] != fullLeaves {
			return fmt.Errorf("pod %d: podFullLeaves %d, ground truth %d", p, s.podFullLeaves[p], fullLeaves)
		}
		if s.podFree[p] != free {
			return fmt.Errorf("pod %d: podFree %d, ground truth %d", p, s.podFree[p], free)
		}
		var busy int32
		for i := 0; i < t.L2PerPod; i++ {
			var m uint64
			base := (p*t.L2PerPod + i) * t.SpinesPerGroup
			for sp := 0; sp < t.SpinesPerGroup; sp++ {
				if s.spineUp[base+sp] == s.Capacity {
					m |= 1 << sp
				} else {
					busy++
				}
			}
			if s.spineFull[p*t.L2PerPod+i] != m {
				return fmt.Errorf("pod %d L2 %d: spineFull %#x, residuals imply %#x", p, i, s.spineFull[p*t.L2PerPod+i], m)
			}
		}
		if s.podSpineBusy[p] != busy {
			return fmt.Errorf("pod %d: podSpineBusy %d, ground truth %d", p, s.podSpineBusy[p], busy)
		}
		if s.podVer[p] > s.version {
			return fmt.Errorf("pod %d: version %d is ahead of the state's %d", p, s.podVer[p], s.version)
		}
	}

	// Failure bookkeeping (failure.go): the active specs are valid, canonical,
	// distinct and take something down here; a node is owned by FailedOwner
	// iff the overlap rule says it is failed; a failed link has no residual
	// left; and the counters match the rule. A healthy state holds nothing on
	// behalf of a failure, which needs no walk over the components.
	if s.failures == nil {
		if slices.Contains(s.nodeOwner, FailedOwner) || s.failedCount != [FailureSpineUplink + 1]int{} {
			return fmt.Errorf("no active failure, but nodes are owned by FailedOwner or the failed counts are %v", s.failedCount)
		}
		return nil
	}
	for i, a := range s.failures {
		if a.Validate(s.Tree) != nil || a != a.canonical() || slices.Contains(s.failures[:i], a) || len(s.components(a)) == 0 {
			return fmt.Errorf("active failure %d (%v) is invalid, not canonical, a repeat or outside the cell", i, a)
		}
	}
	var count [FailureSpineUplink + 1]int
	down := func(c Failure) bool {
		d := s.failed(c)
		if d {
			count[c.Kind]++
		}
		return d
	}
	for n, o := range s.nodeOwner {
		if c := NodeFailure(NodeID(n)); down(c) != (o == FailedOwner) {
			return fmt.Errorf("%v: owner %d, but active failures %v", c, o, s.failures)
		}
	}
	for i, r := range s.leafUp {
		if c := LeafUplinkFailure(i/t.L2PerPod, i%t.L2PerPod); down(c) && r != 0 {
			return fmt.Errorf("%v: failed but residual %d != 0", c, r)
		}
	}
	for i, r := range s.spineUp {
		pl := i / t.SpinesPerGroup
		if c := SpineUplinkFailure(pl/t.L2PerPod, pl%t.L2PerPod, i%t.SpinesPerGroup); down(c) && r != 0 {
			return fmt.Errorf("%v: failed but residual %d != 0", c, r)
		}
	}
	if count != s.failedCount {
		return fmt.Errorf("failed nodes/leaf uplinks/spine uplinks %v, active failures %v imply %v", s.failedCount, s.failures, count)
	}
	return nil
}
