package topology

import "testing"

// TestVersionCounter pins the mutation-counter contract the engine's
// feasibility cache depends on: reads never move it, every take/return
// does, clones copy it and then advance independently, and a rollback
// leaves the state at a version it never reported before.
func TestVersionCounter(t *testing.T) {
	tree := MustNew(8)
	st := NewState(tree, 1)
	v0 := st.Version()

	// Reads do not bump.
	_ = st.FreeNodes()
	_ = st.FreeInLeaf(0)
	_ = st.LeafUpMask(0, 1)
	_ = st.SpineMask(0, 0, 1)
	if st.Version() != v0 {
		t.Fatalf("read-only queries moved the version: %d -> %d", v0, st.Version())
	}

	// A placement's Apply and Release both bump.
	pl := NewPlacement(1, 1)
	pl.AddLeafNodes(0, 2)
	pl.AddLeafUp(0, 0)
	pl.Apply(st)
	v1 := st.Version()
	if v1 <= v0 {
		t.Fatalf("Apply did not bump the version: %d -> %d", v0, v1)
	}
	pl.Release(st)
	if st.Version() <= v1 {
		t.Fatalf("Release did not bump the version: %d -> %d", v1, st.Version())
	}

	// Clone copies the current value; afterwards the two advance apart.
	pl2 := NewPlacement(2, 1)
	pl2.AddLeafNodes(1, 1)
	c := st.Clone()
	if c.Version() != st.Version() {
		t.Fatalf("clone version %d != parent %d", c.Version(), st.Version())
	}
	pl2.Apply(c)
	if c.Version() == st.Version() {
		t.Fatal("clone mutation moved the parent's version")
	}

	// Rollback restores the state but reports a strictly newer version than
	// any seen during the transaction: a consumer holding a pre-transaction
	// version must observe a change.
	vPre := st.Version()
	st.Begin()
	pl3 := NewPlacement(3, 1)
	pl3.AddLeafNodes(2, 3)
	pl3.Apply(st)
	vIn := st.Version()
	if vIn <= vPre {
		t.Fatalf("in-transaction mutation did not bump: %d -> %d", vPre, vIn)
	}
	st.Rollback()
	if st.Version() <= vIn {
		t.Fatalf("rollback must land on a fresh version, got %d (in-txn %d)", st.Version(), vIn)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A committed transaction keeps its in-transaction version.
	st.Begin()
	pl4 := NewPlacement(4, 1)
	pl4.AddLeafNodes(3, 1)
	pl4.Apply(st)
	vc := st.Version()
	st.Commit()
	if st.Version() != vc {
		t.Fatalf("commit changed the version: %d -> %d", vc, st.Version())
	}
}

// TestPodVersionMovesOnlyItsPod pins the per-pod counter the search and
// publish caches key on: a mutation inside pod p moves PodVersion(p) to the
// new Version() and leaves every other pod's version where it was, whichever
// mutator made it (nodes, a leaf uplink, a spine uplink, a failure spec).
func TestPodVersionMovesOnlyItsPod(t *testing.T) {
	tree := MustNew(8)
	st := NewState(tree, 2)
	versions := func() []uint64 {
		v := make([]uint64, tree.Pods)
		for p := range v {
			v[p] = st.PodVersion(p)
		}
		return v
	}
	const pod = 2
	leaf := tree.LeafIndex(pod, 1)
	steps := []struct {
		name string
		do   func()
	}{
		{"take nodes", func() { chargeLeaf(st, 1, leaf, 2) }},
		{"take a leaf uplink", func() { st.takeLeafUp(leaf, 3, 1) }},
		{"return a leaf uplink", func() { st.returnLeafUp(leaf, 3, 1) }},
		{"take a spine uplink", func() { st.takeSpineUp(pod, 1, 2, 2) }},
		{"return a spine uplink", func() { st.returnSpineUp(pod, 1, 2, 2) }},
		{"return a node", func() { st.returnNode(NodeID(leaf * tree.NodesPerLeaf)) }},
		{"re-take a node", func() { st.retakeNode(NodeID(leaf*tree.NodesPerLeaf), 7) }},
		{"fail an L2 switch", func() {
			if err := L2SwitchFailure(pod, 0).Apply(st); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, step := range steps {
		before := versions()
		step.do()
		after := versions()
		for p := range after {
			switch {
			case p == pod && (after[p] <= before[p] || after[p] != st.Version()):
				t.Fatalf("%s: pod %d version %d -> %d, state version %d", step.name, p, before[p], after[p], st.Version())
			case p != pod && after[p] != before[p]:
				t.Fatalf("%s in pod %d moved pod %d's version %d -> %d", step.name, pod, p, before[p], after[p])
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}

	// A spine switch serves every pod: it touches each one.
	before := versions()
	if err := SpineSwitchFailure(1, 0).Apply(st); err != nil {
		t.Fatal(err)
	}
	for p, v := range versions() {
		if v <= before[p] {
			t.Fatalf("spine-switch failure left pod %d at version %d", p, v)
		}
	}
}

// chargeLeaf charges n nodes of one leaf to job through a placement.
func chargeLeaf(st *State, job JobID, leaf, n int) {
	pl := NewPlacement(job, 1)
	pl.AddLeafNodes(leaf, n)
	pl.Apply(st)
}

// TestCloneCopiesPodVersions pins that a clone starts at its parent's
// per-pod versions and that the two advance independently afterwards.
func TestCloneCopiesPodVersions(t *testing.T) {
	tree := MustNew(8)
	st := NewState(tree, 1)
	for p := 0; p < tree.Pods; p += 2 {
		chargeLeaf(st, JobID(p+1), tree.LeafIndex(p, 0), 1)
	}
	c := st.Clone()
	for p := 0; p < tree.Pods; p++ {
		if c.PodVersion(p) != st.PodVersion(p) {
			t.Fatalf("pod %d: clone version %d, parent %d", p, c.PodVersion(p), st.PodVersion(p))
		}
	}
	chargeLeaf(c, 99, tree.LeafIndex(1, 0), 1)
	if c.PodVersion(1) == st.PodVersion(1) {
		t.Fatal("a clone mutation moved the parent's pod version")
	}
}

// TestRollbackLandsPodsOnFreshVersions pins what the per-pod caches rely on
// across a what-if: every pod a transaction touched reports, after Rollback, a
// version it never reported before (before or during the transaction), and an
// untouched pod keeps its version.
func TestRollbackLandsPodsOnFreshVersions(t *testing.T) {
	tree := MustNew(8)
	st := NewState(tree, 1)
	chargeLeaf(st, 1, tree.LeafIndex(0, 0), 1)
	chargeLeaf(st, 2, tree.LeafIndex(3, 0), 1)
	seen := make([]map[uint64]bool, tree.Pods)
	observe := func() {
		for p := range seen {
			if seen[p] == nil {
				seen[p] = map[uint64]bool{}
			}
			seen[p][st.PodVersion(p)] = true
		}
	}
	observe()
	pre := st.PodVersion(2)
	st.Begin()
	// Touch pods 0 and 3 several times each, observing every step.
	for k := 0; k < 3; k++ {
		pl := NewPlacement(JobID(10+k), 1)
		pl.AddLeafNodes(tree.LeafIndex(0, 1), 1)
		pl.AddLeafNodes(tree.LeafIndex(3, 2), 1)
		pl.AddLeafUp(tree.LeafIndex(3, 2), k)
		pl.AddSpineUp(3, k, 0)
		pl.Apply(st)
		observe()
	}
	st.Rollback()
	for _, p := range []int{0, 3} {
		if seen[p][st.PodVersion(p)] {
			t.Fatalf("pod %d: rolled back to version %d, which it reported before", p, st.PodVersion(p))
		}
	}
	if st.PodVersion(2) != pre {
		t.Fatalf("untouched pod 2 moved %d -> %d across a rollback", pre, st.PodVersion(2))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
