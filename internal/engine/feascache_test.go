package engine_test

// Differential pinning and edge cases for the negative-feasibility cache
// (DESIGN.md §11): an engine with the cache must produce the same schedule,
// event for event, as one whose allocator does not offer it — the cache may
// only skip allocator searches whose failure is already proven, never change
// a verdict. The edge tests then pin the specific invalidation hazards:
// cancellation mid-pass, queue churn through empty, same-size candidates
// straddling a backfill start, and the monotone threshold resetting on
// release.

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// uncached is the cache-less reference: embedding the TxnAllocator interface
// (not the concrete type) hides alloc.FeasibilityClasser and
// alloc.MonotoneFeasibility, so the engine builds no feasibility cache, while
// Begin/Rollback/Commit stay — the way cloneOnly hides the transaction
// methods. (alloc.PartitionFinder goes too; only elastic moves ask for it
// and these tests make none.)
type uncached struct{ alloc.TxnAllocator }

func newUncached(t *testing.T, policy string, tree *topology.FatTree) alloc.Allocator {
	t.Helper()
	return uncached{newPolicy(t, policy, tree).(alloc.TxnAllocator)}
}

// TestCachedEngineMatchesUncachedEngine drives a cached and an uncached
// engine of the same policy through identical randomized histories across
// all six policies and both backfill modes. Both run in transaction
// mode, so the cache is the only difference. The shared
// accounting comparison includes AllocCalls, pinning that cache hits still
// count as logical allocation attempts.
func TestCachedEngineMatchesUncachedEngine(t *testing.T) {
	tree := topology.MustNew(8) // 128 nodes
	hits := map[string]int{}
	for _, policy := range allPolicies {
		for _, v := range engineVariants {
			t.Run(policy+"/"+v.name, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					ecache, err := engine.New(engine.Config{
						Alloc:           newPolicy(t, policy, tree),
						DisableBackfill: v.disableBackfill,
						Window:          10,
					})
					if err != nil {
						t.Fatal(err)
					}
					eplain, err := engine.New(engine.Config{
						Alloc:           newUncached(t, policy, tree),
						DisableBackfill: v.disableBackfill,
						Window:          10,
					})
					if err != nil {
						t.Fatal(err)
					}
					drivePair(t, policy, v.name+"/cache", seed, tree, ecache, eplain, nil)
					acc := ecache.Accounting()
					hits[policy] += acc.FeasCacheHits
					if p := eplain.Accounting(); p.FeasCacheHits != 0 || p.FeasCacheMisses != 0 || p.FeasCacheInvalidations != 0 {
						t.Fatalf("%s/%s seed %d: uncached engine reported cache activity: %+v", policy, v.name, seed, p)
					}
				}
			})
		}
	}
	// The histories park near-machine blockers at the head and scan deep
	// backfill windows, so a cache that never fires means the wiring broke.
	for policy, h := range hits {
		if h == 0 {
			t.Errorf("%s: feasibility cache never hit across all variants and seeds", policy)
		}
	}
}

// mkEngine builds a deterministic test engine.
func mkEngine(t *testing.T, cfg engine.Config) *engine.Engine {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func submitAt(t *testing.T, e *engine.Engine, id int64, size int, arrival, runtime float64) {
	t.Helper()
	if err := e.Submit(trace.Job{ID: id, Size: size, Arrival: arrival, Runtime: runtime}); err != nil {
		t.Fatal(err)
	}
}

func stateOf(t *testing.T, e *engine.Engine, id int64) engine.State {
	t.Helper()
	st, ok := e.Status(id)
	if !ok {
		t.Fatalf("unknown job %d", id)
	}
	return st.State
}

// TestFeasCacheCancellationInvalidates pins the cancellation edge: a job
// proven infeasible while the machine is full must start the moment a
// running job's cancellation frees resources — the release's version bump
// discards the cached verdict.
func TestFeasCacheCancellationInvalidates(t *testing.T) {
	tree := topology.MustNew(8)
	e := mkEngine(t, engine.Config{Alloc: core.NewAllocator(tree)})

	submitAt(t, e, 1, tree.Nodes(), 0, 1000) // fills the machine
	submitAt(t, e, 2, 1, 0, 10)              // blocked behind it
	e.AdvanceTo(0)
	if got := stateOf(t, e, 1); got != engine.StateRunning {
		t.Fatalf("job 1 = %v, want running", got)
	}
	if got := stateOf(t, e, 2); got != engine.StateQueued {
		t.Fatalf("job 2 = %v, want queued", got)
	}
	acc := e.Accounting()
	if acc.FeasCacheMisses == 0 {
		t.Fatal("blocked head should have consulted and missed the cache")
	}

	// Cancelling the running job must immediately unblock job 2: a stale
	// "size 1 infeasible" verdict surviving the release would keep it queued.
	if _, err := e.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, e, 2); got != engine.StateRunning {
		t.Fatalf("after cancel, job 2 = %v, want running", got)
	}
	if acc = e.Accounting(); acc.FeasCacheInvalidations == 0 {
		t.Fatal("the cancellation's release must invalidate the cache")
	}
}

// TestFeasCacheQueueChurn pins cache behavior across a queue that repeatedly
// empties: rejection verdicts (reservation passes on a drained machine) and
// fresh feasibility verdicts must stay correct through arbitrary
// submit/cancel churn at one instant.
func TestFeasCacheQueueChurn(t *testing.T) {
	tree := topology.MustNew(8)
	e := mkEngine(t, engine.Config{Alloc: core.NewAllocator(tree)})

	for round := int64(0); round < 5; round++ {
		base := round * 10
		// Impossible job: rejected via the reservation pass.
		submitAt(t, e, base+1, tree.Nodes()+1, 0, 10)
		e.AdvanceTo(0)
		if got := stateOf(t, e, base+1); got != engine.StateRejected {
			t.Fatalf("round %d: oversized job = %v, want rejected", round, got)
		}
		// Feasible job: must start despite the rejection traffic before it.
		submitAt(t, e, base+2, 1, 0, 5)
		e.AdvanceTo(0)
		if got := stateOf(t, e, base+2); got != engine.StateRunning {
			t.Fatalf("round %d: unit job = %v, want running", round, got)
		}
		// Queue a second unit job and cancel it while queued... (machine
		// still has room, so it starts; cancel the running one instead to
		// churn back to a drained machine).
		if _, err := e.Cancel(base + 2); err != nil {
			t.Fatal(err)
		}
		if s := e.Snapshot(); s.QueueDepth != 0 || s.RunningJobs != 0 {
			t.Fatalf("round %d: machine not drained: %+v", round, s)
		}
	}
}

// TestFeasCacheSameSizeAcrossBackfillStart pins the one-scan edge: two
// same-size candidates straddling a successful backfill start. The start
// bumps the state version mid-scan, so the second candidate's verdict must
// be recomputed — and the overall schedule must match the uncached engine's
// exactly. (Starts only consume resources, so the answer cannot flip from
// infeasible to feasible within a scan; the differential pins that the
// conservative invalidation changes nothing observable.)
func TestFeasCacheSameSizeAcrossBackfillStart(t *testing.T) {
	tree := topology.MustNew(8) // 128 nodes: 8 pods x 4 leaves x 4 nodes
	run := func(a alloc.Allocator) *engine.Engine {
		e := mkEngine(t, engine.Config{Alloc: a})
		// 6 whole pods, leaving 2 pods (32 nodes, 8 whole leaves) free.
		submitAt(t, e, 1, 96, 0, 1000)
		// Head blocker: whole machine, parks with shadow time 1000.
		submitAt(t, e, 2, tree.Nodes(), 0, 100)
		// Backfill window: 48 nodes needs 12 whole-ish leaves, only 8 are
		// free — infeasible (job 3, recorded; job 4, cache hit). Job 5
		// starts (version bump mid-scan), so job 6's identical size is
		// recomputed after an invalidation; job 7 still fits. All finish
		// before the shadow.
		submitAt(t, e, 3, 48, 0, 50)
		submitAt(t, e, 4, 48, 0, 50)
		submitAt(t, e, 5, 16, 0, 50)
		submitAt(t, e, 6, 48, 0, 50)
		submitAt(t, e, 7, 16, 0, 50)
		e.AdvanceTo(0)
		return e
	}
	cached, plain := run(core.NewAllocator(tree)), run(newUncached(t, "Jigsaw", tree))
	for id, want := range map[int64]engine.State{
		1: engine.StateRunning, 2: engine.StateQueued, 3: engine.StateQueued,
		4: engine.StateQueued, 5: engine.StateRunning, 6: engine.StateQueued,
		7: engine.StateRunning,
	} {
		if got := stateOf(t, cached, id); got != want {
			t.Errorf("cached: job %d = %v, want %v", id, got, want)
		}
		if got := stateOf(t, plain, id); got != want {
			t.Errorf("uncached: job %d = %v, want %v", id, got, want)
		}
	}
	ca, pa := cached.Accounting(), plain.Accounting()
	if ca.AllocCalls != pa.AllocCalls {
		t.Errorf("AllocCalls diverge: cached %d, uncached %d", ca.AllocCalls, pa.AllocCalls)
	}
	if ca.FeasCacheHits == 0 {
		t.Error("the second 48-node candidate (pre-start) should hit the cached verdict")
	}
	if ca.FeasCacheInvalidations == 0 {
		t.Error("the mid-scan start must invalidate the cache")
	}
}

// TestFeasCacheMonotoneThresholdReset pins the monotone (threshold) mode on
// the baseline policy: a failure at size N refutes every larger size without
// a search, and a release resets the threshold so smaller-but-previously-
// infeasible sizes are retried.
func TestFeasCacheMonotoneThresholdReset(t *testing.T) {
	tree := topology.MustNew(8) // 128 nodes
	e := mkEngine(t, engine.Config{Alloc: baseline.NewAllocator(tree)})

	submitAt(t, e, 1, 100, 0, 100) // leaves 28 free, completes at t=100
	submitAt(t, e, 2, 40, 0, 10)   // blocked head: 40 > 28, threshold = 40
	submitAt(t, e, 3, 45, 0, 10)   // backfill candidate, 45 >= 40: cache hit
	submitAt(t, e, 4, 42, 0, 10)   // likewise
	e.AdvanceTo(0)
	acc := e.Accounting()
	if got := stateOf(t, e, 2); got != engine.StateQueued {
		t.Fatalf("job 2 = %v, want queued", got)
	}
	if acc.FeasCacheHits < 2 {
		t.Fatalf("threshold pruning should refute jobs 3 and 4 without a search: hits = %d", acc.FeasCacheHits)
	}

	// Job 1's completion releases 100 nodes; the threshold must reset so
	// jobs 2, 3, and 4 (together 127 <= 128 nodes) all start.
	e.AdvanceTo(100)
	for id := int64(2); id <= 4; id++ {
		if got := stateOf(t, e, id); got != engine.StateRunning {
			t.Fatalf("after release, job %d = %v, want running", id, got)
		}
	}
	if acc = e.Accounting(); acc.FeasCacheInvalidations == 0 {
		t.Fatal("the release must reset the monotone threshold")
	}
}
