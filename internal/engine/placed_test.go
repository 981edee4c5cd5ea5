package engine

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// placementFor searches a scratch allocator with identical state for a
// placement, which is then free (and therefore mirrorable) on the engine
// under test.
func placementFor(t *testing.T, e *Engine, id int64, size int) *topology.Placement {
	t.Helper()
	scratch := e.cfg.Alloc.Clone()
	pl, ok := scratch.Allocate(topology.JobID(id), size)
	if !ok {
		t.Fatalf("no placement for size %d", size)
	}
	return pl
}

func TestStartPlacedRunsAndCompletes(t *testing.T) {
	e := newEngine(t, 8)
	if err := e.Submit(job(1, 4, 0, 50)); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTo(10)

	pl := placementFor(t, e, 99, 8)
	st, err := e.StartPlaced(job(99, 8, 3, 0), 25, pl)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Start != 10 || st.End != 35 {
		t.Fatalf("status = %+v, want running [10, 35]", st)
	}
	if st.Job.Arrival != 3 {
		t.Fatalf("arrival rewritten to %g", st.Job.Arrival)
	}
	if e.UsedNodes() != 12 {
		t.Fatalf("used = %d, want 12", e.UsedNodes())
	}
	if err := e.cfg.Alloc.State().CheckInvariants(); err != nil {
		t.Fatalf("invariants after mirror: %v", err)
	}

	// Duplicate IDs are rejected without touching the state.
	free := e.cfg.Alloc.FreeNodes()
	if _, err := e.StartPlaced(job(99, 8, 10, 0), 1, placementFor(t, e, 98, 8)); err == nil {
		t.Fatal("duplicate StartPlaced accepted")
	}
	if e.cfg.Alloc.FreeNodes() != free {
		t.Fatal("failed StartPlaced leaked resources")
	}

	drain(e)
	acc := e.Accounting()
	if len(acc.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(acc.Records))
	}
	// Placed job finished first (end 35 vs 50): records are in end order.
	if acc.Records[0].Job.ID != 99 || acc.Records[0].End != 35 || acc.Records[0].Runtime != 25 {
		t.Fatalf("placed record = %+v", acc.Records[0])
	}
	if e.cfg.Alloc.FreeNodes() != e.TotalNodes() {
		t.Fatalf("nodes leaked after drain: free=%d", e.cfg.Alloc.FreeNodes())
	}
	if got := acc.FirstArrival; got != 0 {
		t.Fatalf("FirstArrival = %g, want 0", got)
	}
}

// TestStartPlacedFutureArrivalClamped pins the clamp: a placed job whose
// recorded arrival is ahead of this engine's clock starts with zero wait,
// never negative.
func TestStartPlacedFutureArrivalClamped(t *testing.T) {
	e := newEngine(t, 8)
	pl := placementFor(t, e, 1, 4)
	st, err := e.StartPlaced(job(1, 4, 7.5, 0), 10, pl)
	if err != nil {
		t.Fatal(err)
	}
	if st.Job.Arrival != 0 || st.Start != 0 {
		t.Fatalf("status = %+v, want arrival and start clamped to 0", st)
	}
}

// TestStartPlacedOnRestrictedShard mirrors the cross-shard composition onto
// a cell-restricted engine and checks the per-shard utilization denominator
// honors Config.TotalNodes.
func TestStartPlacedOnRestrictedShard(t *testing.T) {
	tree := topology.MustNew(8)
	a := baseline.NewAllocator(tree)
	a.State().RestrictToPods(0, 2)
	cell := 2 * tree.PodNodes()
	e, err := New(Config{Alloc: a, Scenario: scenario.None{}, TotalNodes: cell, History: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.TotalNodes() != cell {
		t.Fatalf("TotalNodes = %d, want %d", e.TotalNodes(), cell)
	}

	pl := placementFor(t, e, 5, cell) // the whole cell
	if _, err := e.StartPlaced(job(5, cell, 0, 0), 30, pl); err != nil {
		t.Fatal(err)
	}
	if e.cfg.Alloc.FreeNodes() != 0 {
		t.Fatalf("free = %d, want 0", e.cfg.Alloc.FreeNodes())
	}
	drain(e)
	if u := e.SteadyUtilization(); u != 1 {
		t.Fatalf("SteadyUtilization = %g, want 1 (cell-sized denominator)", u)
	}
}
