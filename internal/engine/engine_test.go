package engine

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/trace"
)

func job(id int64, size int, arr, run float64) trace.Job {
	return trace.Job{ID: id, Size: size, Arrival: arr, Runtime: run}
}

func newEngine(t *testing.T, radix int) *Engine {
	t.Helper()
	tree := topology.MustNew(radix)
	e, err := New(Config{Alloc: baseline.NewAllocator(tree), Scenario: scenario.None{}, History: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func drain(e *Engine) {
	for {
		if _, ok := e.Step(); !ok {
			return
		}
	}
}

// TestOnlineMatchesBatch submits the same workload two ways — all up front
// (the batch simulator's pattern) versus incrementally as the clock reaches
// each arrival (the daemon's pattern) — and requires identical outcomes.
func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	jobs := make([]trace.Job, 200)
	arr := 0.0
	for i := range jobs {
		arr += rng.Float64() * 30
		jobs[i] = job(int64(i+1), 1+rng.Intn(60), arr, 5+rng.Float64()*200)
	}

	tree := topology.MustNew(8)
	batch, err := New(Config{Alloc: core.NewAllocator(tree), Scenario: scenario.None{}, History: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := batch.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	drain(batch)

	tree2 := topology.MustNew(8)
	online, err := New(Config{Alloc: core.NewAllocator(tree2), Scenario: scenario.None{}, History: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		online.AdvanceTo(j.Arrival)
		if err := online.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	drain(online)

	br, or := batch.Accounting().Records, online.Accounting().Records
	if len(br) != len(or) || len(br) != len(jobs) {
		t.Fatalf("record counts differ: batch %d online %d want %d", len(br), len(or), len(jobs))
	}
	for i := range br {
		if br[i] != or[i] {
			t.Fatalf("record %d differs: batch %+v online %+v", i, br[i], or[i])
		}
	}
	if batch.Accounting().SteadyEnd != online.Accounting().SteadyEnd {
		t.Fatalf("steady end differs: %g vs %g",
			batch.Accounting().SteadyEnd, online.Accounting().SteadyEnd)
	}
}

func TestArrivalClampedToClock(t *testing.T) {
	e := newEngine(t, 4)
	e.AdvanceTo(10)
	if err := e.Submit(job(1, 4, 5, 20)); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTo(e.Now())
	st, ok := e.Status(1)
	if !ok || st.State != StateRunning {
		t.Fatalf("status = %+v, want running", st)
	}
	if st.Start != 10 {
		t.Fatalf("start = %g, want clamped arrival 10", st.Start)
	}
}

func TestCancelQueuedJobUnblocksSuccessors(t *testing.T) {
	e := newEngine(t, 4) // 16 nodes
	// Job 1 fills the machine; 2 and 3 queue behind it. 2 can never be the
	// one to run next to 3 (both need the full machine), so cancelling 2
	// must leave 3 the head.
	for _, j := range []trace.Job{job(1, 16, 0, 100), job(2, 16, 0, 50), job(3, 8, 0, 10)} {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTo(0)
	if snap := e.Snapshot(); snap.QueueDepth != 2 {
		t.Fatalf("queue depth = %d, want 2", snap.QueueDepth)
	}
	st, err := e.Cancel(2)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel: %+v, %v", st, err)
	}
	// Job 3 becomes head but still blocked; after job 1 completes it runs.
	drain(e)
	st3, _ := e.Status(3)
	if st3.State != StateCompleted || st3.Start != 100 {
		t.Fatalf("job 3 = %+v, want completed with start 100", st3)
	}
	if c := e.Counts(); c.Cancelled != 1 || c.Completed != 2 || c.Submitted != 3 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestCancelRunningJobFreesNodesImmediately(t *testing.T) {
	e := newEngine(t, 4)
	if err := e.Submit(job(1, 16, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(job(2, 16, 0, 30)); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTo(10) // job 1 running, job 2 queued, clock mid-interval
	if _, err := e.Cancel(1); err != nil {
		t.Fatal(err)
	}
	st2, _ := e.Status(2)
	if st2.State != StateRunning || st2.Start != 10 {
		t.Fatalf("job 2 = %+v, want running from t=10", st2)
	}
	if e.UsedNodes() != 16 {
		t.Fatalf("used = %d, want 16", e.UsedNodes())
	}
	drain(e)
	if !e.Idle() {
		t.Fatal("engine not idle after drain")
	}
	st1, _ := e.Status(1)
	if st1.State != StateCancelled || st1.End != 10 {
		t.Fatalf("job 1 = %+v, want cancelled at t=10", st1)
	}
	// The cancelled job's completion event must not double-release.
	if snap := e.Snapshot(); snap.FreeNodes != 16 || snap.UsedNodes != 0 {
		t.Fatalf("post-drain snapshot = %+v", snap)
	}
}

func TestCancelFinishedOrUnknown(t *testing.T) {
	e := newEngine(t, 4)
	if err := e.Submit(job(1, 4, 0, 10)); err != nil {
		t.Fatal(err)
	}
	drain(e)
	if _, err := e.Cancel(1); err == nil {
		t.Fatal("cancelling a completed job must fail")
	}
	if _, err := e.Cancel(42); err == nil {
		t.Fatal("cancelling an unknown job must fail")
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	e := newEngine(t, 4)
	if err := e.Submit(job(1, 4, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(job(1, 2, 0, 10)); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
}

func TestOversizeJobRejectedWhenHead(t *testing.T) {
	e := newEngine(t, 4)
	if err := e.Submit(job(1, 99, 0, 10)); err != nil {
		t.Fatal(err)
	}
	drain(e)
	st, _ := e.Status(1)
	if st.State != StateRejected {
		t.Fatalf("state = %v, want rejected", st.State)
	}
	if c := e.Counts(); c.Rejected != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestSnapshotFIFOOrderAndConservation(t *testing.T) {
	e := newEngine(t, 4)
	for _, j := range []trace.Job{
		job(1, 8, 0, 100), job(2, 8, 0, 100), // both run
		job(3, 16, 0, 10), job(4, 2, 0, 1000), // 3 blocks; 4 would outlive shadow
	} {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTo(0)
	snap := e.Snapshot()
	if snap.RunningJobs != 2 || snap.UsedNodes != 16 || snap.FreeNodes != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.QueueDepth != 2 || snap.Queue[0].Job.ID != 3 || snap.Queue[1].Job.ID != 4 {
		t.Fatalf("queue order wrong: %+v", snap.Queue)
	}
	if len(snap.Running) != 2 || snap.Running[0].Job.ID != 1 || snap.Running[1].Job.ID != 2 {
		t.Fatalf("running order wrong: %+v", snap.Running)
	}
	if snap.UsedNodes+snap.FreeNodes != snap.TotalNodes {
		t.Fatalf("node conservation violated: %+v", snap)
	}
}

func TestAdvanceToMovesIdleClock(t *testing.T) {
	e := newEngine(t, 4)
	if steps := e.AdvanceTo(50); steps != 0 || e.Now() != 50 {
		t.Fatalf("steps=%d now=%g", steps, e.Now())
	}
	// Never move backwards.
	e.AdvanceTo(20)
	if e.Now() != 50 {
		t.Fatalf("clock moved backwards to %g", e.Now())
	}
}
