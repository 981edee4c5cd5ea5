package core

import (
	"reflect"
	"testing"

	"repro/internal/topology"
)

// These tests are white-box on purpose: they reach the unexported noBounds
// switch (the faithful unpruned reference search) and the unexported search
// function that reports how many budget steps a whole search consumed.

// byteFeed turns a fuzz byte string into a stream of small non-negative
// ints; an exhausted feed yields zeros.
type byteFeed struct {
	data []byte
	i    int
}

func (f *byteFeed) next() int {
	if f.i >= len(f.data) {
		return 0
	}
	b := f.data[f.i]
	f.i++
	return int(b)
}

// buildFuzzState constructs a randomized state: a tree of fuzz-chosen radix
// and link capacity, random per-leaf occupancy, random failures (nodes,
// links, switches), and a few real allocations charged through the search
// itself so link residuals carry realistic patterns. Returns the state and
// the link capacity.
func buildFuzzState(t *testing.T, fd *byteFeed) (*topology.State, int32) {
	radix := []int{4, 8, 16}[fd.next()%3]
	tree := topology.MustNew(radix)
	capacity := int32(1 + fd.next()%3)
	st := topology.NewState(tree, capacity)

	// Random occupancy: take some nodes on random leaves.
	for j, n := 0, fd.next()%5; j < n; j++ {
		leaf := fd.next() % tree.Leaves()
		take := fd.next() % (tree.NodesPerLeaf + 1)
		if free := st.FreeInLeaf(leaf); take > free {
			take = free
		}
		if take == 0 {
			continue
		}
		pl := topology.NewPlacement(topology.JobID(100+j), 1)
		pl.AddLeafNodes(leaf, take)
		pl.Apply(st)
	}

	// Random degradation; errors (already failed, occupied) are fine.
	for j, n := 0, fd.next()%5; j < n; j++ {
		switch fd.next() % 5 {
		case 0:
			_ = topology.NodeFailure(topology.NodeID(fd.next() % tree.Nodes())).Apply(st)
		case 1:
			_ = topology.LeafUplinkFailure(fd.next()%tree.Leaves(), fd.next()%tree.L2PerPod).Apply(st)
		case 2:
			_ = topology.SpineUplinkFailure(fd.next()%tree.Pods, fd.next()%tree.L2PerPod, fd.next()%tree.SpinesPerGroup).Apply(st)
		case 3:
			_ = topology.LeafSwitchFailure(fd.next() % tree.Leaves()).Apply(st)
		case 4:
			_ = topology.L2SwitchFailure(fd.next()%tree.Pods, fd.next()%tree.L2PerPod).Apply(st)
		}
	}

	// A few real allocations (any partition the search returns is legal to
	// charge, whichever search variant produced it).
	for j, n := 0, fd.next()%3; j < n; j++ {
		demand := int32(1 + fd.next()%int(capacity))
		size := 1 + fd.next()%tree.Nodes()
		if p, ok := Search(st, demand, size, fd.next()%2 == 0, DefaultSearchBudget, nil); ok {
			pl := p.Placement(tree, topology.JobID(200+j), demand)
			pl.Apply(st)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("fuzz state construction broke invariants: %v", err)
	}
	return st, capacity
}

// checkPrunedMatchesUnpruned runs a handful of fuzz-chosen searches against
// st with the pruned search (shared scratch, exercising its remembered
// summaries) and the unpruned reference (fresh noBounds scratch each time)
// and requires identical outcomes: same hit/miss verdict and, on a hit, the
// same partition bit for bit.
func checkPrunedMatchesUnpruned(t *testing.T, st *topology.State, capacity int32, fd *byteFeed) {
	tree := st.Tree
	pruned := &Scratch{}
	for trial := 0; trial < 4; trial++ {
		demand := int32(1 + fd.next()%int(capacity))
		size := 1 + fd.next()%tree.Nodes()
		sparse := fd.next()%2 == 0

		p1, ok1 := Search(st, demand, size, sparse, DefaultSearchBudget, pruned)
		ref := &Scratch{noBounds: true}
		p2, ok2 := Search(st, demand, size, sparse, DefaultSearchBudget, ref)
		if ok1 != ok2 {
			t.Fatalf("size=%d demand=%d sparse=%v: pruned ok=%v, unpruned ok=%v",
				size, demand, sparse, ok1, ok2)
		}
		if ok1 && !reflect.DeepEqual(p1, p2) {
			t.Fatalf("size=%d demand=%d sparse=%v: pruned and unpruned found different partitions\npruned:   %+v\nunpruned: %+v",
				size, demand, sparse, p1, p2)
		}
	}
}

// FuzzSearchPruned is the pruning-soundness differential: across random
// states, demands, sizes, and degraded fabrics, the pruned search and the
// unpruned reference must return identical partitions or identical misses.
// Every admissibility bound is meant to be a necessary condition; any seed
// where pruning changes the outcome is a soundness bug.
func FuzzSearchPruned(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 2, 4, 3, 7, 2, 200, 1, 3, 5, 2, 9, 0, 0, 61, 17, 88, 3, 4, 5})
	f.Add([]byte{2, 0, 0, 255, 8, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 40, 41, 42, 43})
	f.Add([]byte{2, 2, 4, 9, 8, 4, 3, 12, 1, 30, 2, 2, 2, 2, 2, 2, 77, 13, 9, 1, 0, 200, 6})
	f.Add([]byte{1, 1, 3, 5, 7, 2, 0, 6, 2, 4, 1, 3, 128, 9, 31, 64, 2, 2, 250, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		fd := &byteFeed{data: data}
		st, capacity := buildFuzzState(t, fd)
		checkPrunedMatchesUnpruned(t, st, capacity, fd)
	})
}

// TestSearchBudgetIsWholeSearch pins the budget contract: budget is one pool
// for the entire search — the two-level pass, the three-level pass, and
// every factorization draw from it — so a budget-B search performs at most B
// backtracking extensions before giving up, and a search that completes
// within the budget is unaffected by it.
func TestSearchBudgetIsWholeSearch(t *testing.T) {
	tree := topology.MustNew(16)
	podNodes := tree.LeavesPerPod * tree.NodesPerLeaf

	// A three-level hit on the empty machine: the extensions to reach it
	// are deterministic, so the unbudgeted step count U is exact.
	empty := topology.NewState(tree, 1)
	size := 3*podNodes + tree.NodesPerLeaf
	p, ok, used := search(empty, 1, size, false, DefaultSearchBudget, nil)
	if !ok || p == nil {
		t.Fatalf("three-level hit expected on empty machine")
	}
	if used <= 0 {
		t.Fatalf("a backtracking hit must consume steps, used = %d", used)
	}
	if used > DefaultSearchBudget {
		t.Fatalf("used %d exceeds budget %d", used, DefaultSearchBudget)
	}

	// Exactly U steps suffice; any smaller budget must stop within bound
	// and report a miss instead of overdrawing.
	if _, ok, u := search(empty, 1, size, false, used, nil); !ok || u != used {
		t.Fatalf("budget == steps-needed (%d) must still find the partition (ok=%v used=%d)", used, ok, u)
	}
	for _, budget := range []int{0, 1, used / 2, used - 1} {
		_, ok, u := search(empty, 1, size, false, budget, nil)
		if ok {
			t.Fatalf("budget %d < %d must exhaust before the partition is found", budget, used)
		}
		if u > budget {
			t.Fatalf("budget %d: search consumed %d steps, beyond the bound", budget, u)
		}
	}

	// The two-level pass is budgeted too (it used to run unbounded): a
	// two-level hit consumes steps, and budget 0 forbids even that.
	if _, ok, u := search(empty, 1, podNodes-3, false, DefaultSearchBudget, nil); !ok || u <= 0 {
		t.Fatalf("two-level hit must consume budget steps (ok=%v used=%d)", ok, u)
	}
	if _, ok, u := search(empty, 1, podNodes-3, false, 0, nil); ok || u != 0 {
		t.Fatalf("budget 0 must stop the two-level pass before any extension (ok=%v used=%d)", ok, u)
	}
}

// TestFindTwoLevelNilBudget pins that a nil steps pointer means unbudgeted:
// the LC+S policy relies on it (it budgets per pod probe at its own
// granularity; see internal/lcs).
func TestFindTwoLevelNilBudget(t *testing.T) {
	tree := topology.MustNew(8)
	st := topology.NewState(tree, 1)
	p, ok := FindTwoLevel(st, 1, 1, tree.LeavesPerPod, tree.NodesPerLeaf, 0, nil, nil)
	if !ok {
		t.Fatal("full pod must fit on an empty machine")
	}
	if got := p.Size(); got != tree.LeavesPerPod*tree.NodesPerLeaf {
		t.Fatalf("size = %d", got)
	}
	steps := DefaultSearchBudget
	p2, ok2 := FindTwoLevel(st, 1, 1, tree.LeavesPerPod, tree.NodesPerLeaf, 0, &steps, nil)
	if !ok2 || !reflect.DeepEqual(p, p2) {
		t.Fatal("budgeted and unbudgeted searches must agree when the budget is ample")
	}
	if steps >= DefaultSearchBudget {
		t.Fatal("a budgeted two-level search must charge its extensions")
	}
}
