package topology

// Cell restriction: the sharded daemon (internal/shard, internal/server)
// splits the fabric into contiguous pod ranges ("cells") and runs one engine
// per cell. Each engine still owns a full-geometry State — so every
// allocator, index, and invariant works unchanged — but the pods outside its
// cell are permanently consumed by the OfflineOwner sentinel through the
// ordinary take mutators, exactly the way failures are encoded
// (failure.go). A restricted pod reports podFree == 0 and
// podFullLeaves == 0, so all six policies skip it with zero allocator
// changes.
//
// Restriction is a construction-time operation on a pristine state; it is
// not reversible and not a failure (the offline resources are not counted by
// FailedNodes/FailedLinks).

import "fmt"

// OfflineOwner is the sentinel JobID owning nodes outside a state's cell.
// It is distinct from FailedOwner: offline resources belong to another
// shard and are invisible here by design, while failed resources are broken
// and counted by the failure gauges.
const OfflineOwner JobID = -2

// podLo returns the first pod of the state's cell (0 when unrestricted).
func (s *State) podLo() int { return s.cellLo }

// podHi returns one past the last pod of the state's cell (Tree.Pods when
// unrestricted).
func (s *State) podHi() int {
	if s.cellHi == 0 {
		return s.Tree.Pods
	}
	return s.cellHi
}

// CellRange returns the pod range [lo, hi) this state schedules; the full
// range when RestrictToPods was never called.
func (s *State) CellRange() (lo, hi int) { return s.podLo(), s.podHi() }

// RestrictToPods confines the state to the contiguous pod range [lo, hi):
// every node, leaf uplink, and spine uplink of the pods outside the range is
// consumed by OfflineOwner, and cell-spanning failure kinds (spine-switch)
// apply only to in-range pods from then on. The state must be pristine —
// freshly constructed, nothing allocated, no failures, no transaction —
// because restriction composes with nothing: it is the first thing a shard
// does to its state. Restricting to the full range is a no-op (the version
// counter does not move), which is what makes a 1-shard daemon bit-for-bit
// identical to an unsharded one.
func (s *State) RestrictToPods(lo, hi int) {
	if lo < 0 || hi > s.Tree.Pods || lo >= hi {
		panic(fmt.Sprintf("topology: cell [%d, %d) outside pods [0, %d)", lo, hi, s.Tree.Pods))
	}
	if s.version != 0 || s.freeTotal != s.Tree.Nodes() || s.txnActive || s.Degraded() {
		panic("topology: RestrictToPods on a non-pristine state")
	}
	if lo == 0 && hi == s.Tree.Pods {
		return
	}
	s.cellLo, s.cellHi = lo, hi
	for pod := 0; pod < s.Tree.Pods; pod++ {
		if pod >= lo && pod < hi {
			continue
		}
		for l := 0; l < s.Tree.LeavesPerPod; l++ {
			leaf := s.Tree.LeafIndex(pod, l)
			s.takeNodes(leaf, s.Tree.NodesPerLeaf, OfflineOwner)
			for i := 0; i < s.Tree.L2PerPod; i++ {
				s.takeLeafUp(leaf, i, s.Capacity)
			}
		}
		for i := 0; i < s.Tree.L2PerPod; i++ {
			for sp := 0; sp < s.Tree.SpinesPerGroup; sp++ {
				s.takeSpineUp(pod, i, sp, s.Capacity)
			}
		}
	}
}

// FullyFreePod reports whether every leaf of the pod is completely untouched
// and no spine uplink of the pod is in use — the granularity at which the
// cross-shard placement path composes whole-pod partitions.
func (s *State) FullyFreePod(pod int) bool {
	if s.scanQueries {
		return s.FullyFreeLeavesInPod(pod) == s.Tree.LeavesPerPod && s.PodSpinesFree(pod)
	}
	return int(s.podFullLeaves[pod]) == s.Tree.LeavesPerPod && s.podSpineBusy[pod] == 0
}
