package topology

// Tests for cell restriction (cell.go): offline pods are consumed exactly,
// the indices and invariants hold, full-range restriction is a bit-level
// no-op, and cell-spanning failures scope to the restricted pod range.

import "testing"

func TestRestrictToPodsConsumesOutOfCellPods(t *testing.T) {
	tree := MustNew(8) // 8 pods, 4 leaves/pod, 4 nodes/leaf
	s := NewState(tree, 1)
	s.RestrictToPods(2, 5)

	if lo, hi := s.CellRange(); lo != 2 || hi != 5 {
		t.Fatalf("CellRange = [%d, %d), want [2, 5)", lo, hi)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after restriction: %v", err)
	}
	wantFree := 3 * tree.PodNodes()
	if s.FreeNodes() != wantFree {
		t.Fatalf("FreeNodes = %d, want %d", s.FreeNodes(), wantFree)
	}
	for pod := 0; pod < tree.Pods; pod++ {
		in := pod >= 2 && pod < 5
		if got := s.FullyFreePod(pod); got != in {
			t.Fatalf("pod %d: FullyFreePod = %v, want %v", pod, got, in)
		}
		if in {
			continue
		}
		if s.FreeInPod(pod) != 0 || s.FullyFreeLeavesInPod(pod) != 0 {
			t.Fatalf("pod %d not fully consumed: free=%d fullLeaves=%d",
				pod, s.FreeInPod(pod), s.FullyFreeLeavesInPod(pod))
		}
		for l := 0; l < tree.LeavesPerPod; l++ {
			leaf := tree.LeafIndex(pod, l)
			for n := 0; n < tree.NodesPerLeaf; n++ {
				id := NodeID(leaf*tree.NodesPerLeaf + n)
				if s.Owner(id) != OfflineOwner {
					t.Fatalf("node %d owner %d, want OfflineOwner", id, s.Owner(id))
				}
			}
		}
	}
	// Offline is not failed: the failure gauges stay zero.
	if s.FailedNodes() != 0 || s.FailedLinks() != 0 {
		t.Fatalf("restriction counted as failure: nodes=%d links=%d", s.FailedNodes(), s.FailedLinks())
	}
}

func TestRestrictToPodsFullRangeIsNoOp(t *testing.T) {
	tree := MustNew(8)
	s := NewState(tree, 1)
	s.RestrictToPods(0, tree.Pods)
	if s.Version() != 0 {
		t.Fatalf("full-range restriction bumped version to %d", s.Version())
	}
	if s.FreeNodes() != tree.Nodes() {
		t.Fatalf("full-range restriction consumed nodes: free=%d", s.FreeNodes())
	}
	if lo, hi := s.CellRange(); lo != 0 || hi != tree.Pods {
		t.Fatalf("CellRange = [%d, %d), want full range", lo, hi)
	}
}

func TestRestrictToPodsMisusePanics(t *testing.T) {
	tree := MustNew(8)
	for name, fn := range map[string]func(){
		"bad range": func() { NewState(tree, 1).RestrictToPods(5, 2) },
		"out of bounds": func() {
			NewState(tree, 1).RestrictToPods(0, tree.Pods+1)
		},
		"non-pristine": func() {
			s := NewState(tree, 1)
			s.takeNodes(0, 1, 7)
			s.RestrictToPods(0, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSpineSwitchFailureScopedToCell pins the shard contract: on a restricted
// state a spine-switch failure applies to (and recovers from) only the
// in-cell pods, leaving the offline pods' restriction charge untouched.
func TestSpineSwitchFailureScopedToCell(t *testing.T) {
	tree := MustNew(8)
	s := NewState(tree, 1)
	s.RestrictToPods(2, 5)

	if err := SpineSwitchFailure(1, 2).Apply(s); err != nil {
		t.Fatalf("spine-switch failure on a restricted state: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after scoped failure: %v", err)
	}
	if got, want := s.FailedLinks(), 3; got != want { // one uplink per in-cell pod
		t.Fatalf("FailedLinks = %d, want %d", got, want)
	}
	if !s.SpineUplinkFailed(2, 1, 2) || s.SpineUplinkFailed(0, 1, 2) || s.SpineUplinkFailed(5, 1, 2) {
		t.Fatal("the spine switch's uplinks read as failed outside the cell, or not inside it")
	}
	if err := SpineSwitchFailure(1, 2).Revert(s); err != nil {
		t.Fatalf("spine-switch recovery: %v", err)
	}
	if s.FailedLinks() != 0 {
		t.Fatalf("FailedLinks = %d after recovery", s.FailedLinks())
	}
	// A pod-local spec outside the cell belongs to another shard: refused,
	// nothing recorded, nothing taken.
	v := s.Version()
	for _, f := range []Failure{NodeFailure(0), LeafSwitchFailure(tree.LeafIndex(6, 0)), L2SwitchFailure(5, 1)} {
		if err := f.Apply(s); err == nil || s.Degraded() || s.Version() != v {
			t.Fatalf("%v outside cell [2, 5): err=%v degraded=%v", f, err, s.Degraded())
		}
	}
	for pod := 2; pod < 5; pod++ {
		if !s.FullyFreePod(pod) {
			t.Fatalf("pod %d not fully free after recovery", pod)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// TestRestrictedCloneKeepsCell verifies clones inherit the cell bounds (the
// engine's reservation path clones allocators).
func TestRestrictedCloneKeepsCell(t *testing.T) {
	tree := MustNew(8)
	s := NewState(tree, 1)
	s.RestrictToPods(1, 3)
	c := s.Clone()
	if lo, hi := c.CellRange(); lo != 1 || hi != 3 {
		t.Fatalf("clone CellRange = [%d, %d), want [1, 3)", lo, hi)
	}
	if err := SpineSwitchFailure(0, 0).Apply(c); err != nil {
		t.Fatalf("spine-switch failure on the clone: %v", err)
	}
	if got, want := c.FailedLinks(), 2; got != want {
		t.Fatalf("clone FailedLinks = %d, want %d", got, want)
	}
}
