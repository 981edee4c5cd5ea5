package snapshot_test

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/trace"
)

// queueOf lists what MergeQueue walks.
func queueOf(views []*snapshot.View) []engine.JobStatus {
	var q []engine.JobStatus
	snapshot.MergeQueue(views, nil, func(st engine.JobStatus) { q = append(q, st) })
	return q
}

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Alloc: core.NewAllocator(topology.MustNew(4)), History: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPublishReflectsEngineState(t *testing.T) {
	e := newEngine(t)
	p := snapshot.NewPublisher(e)

	// Before any publish, Load serves the initial empty view.
	v0 := p.Load()
	if v0 == nil || v0.Seq != 0 || v0.Snap.QueueDepth != 0 {
		t.Fatalf("initial view %+v", v0)
	}

	// Fill the 16-node machine and queue one job behind it.
	for id := int64(1); id <= 2; id++ {
		if err := e.Submit(trace.Job{ID: id, Size: 16, Arrival: 0, Runtime: 10}); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTo(0)
	v := p.Publish(e)

	if v.Seq != 1 || p.Load() != v {
		t.Fatalf("publish seq/load: %+v", v)
	}
	if v.Snap.RunningJobs != 1 || v.Snap.QueueDepth != 1 || v.Snap.UsedNodes != 16 {
		t.Fatalf("snapshot contents: %+v", v.Snap)
	}
	if st, ok := v.Job(1); !ok || st.State != engine.StateRunning {
		t.Fatalf("running job 1: %+v, %v", st, ok)
	}
	if st, ok := v.Job(2); !ok || st.State != engine.StateQueued {
		t.Fatalf("queued job 2: %+v, %v", st, ok)
	}
	if v.StateVersion != e.StateVersion() {
		t.Fatalf("state version %d, engine %d", v.StateVersion, e.StateVersion())
	}
	if v.PublishedAt.IsZero() {
		t.Fatal("publish time not stamped")
	}

	// The utilization figures must match the reference series walk.
	acc := e.Accounting()
	want := metrics.SeriesUtilization(acc.UtilSeries, acc.FirstArrival, e.Now(), e.TotalNodes())
	if v.UtilNow != want {
		t.Fatalf("UtilNow %v, reference %v", v.UtilNow, want)
	}

	// Seq increases by one per publish.
	if v2 := p.Publish(e); v2.Seq != 2 {
		t.Fatalf("second publish seq %d", v2.Seq)
	}
}

// TestViewImmutableAfterLaterPublishes pins RCU semantics: a retained View
// must not change no matter what the engine and publisher do afterwards.
func TestViewImmutableAfterLaterPublishes(t *testing.T) {
	e := newEngine(t)
	p := snapshot.NewPublisher(e)
	for id := int64(1); id <= 6; id++ {
		if err := e.Submit(trace.Job{ID: id, Size: 4, Arrival: float64(id), Runtime: 5}); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTo(2)
	v := p.Publish(e)
	frozen := *v
	one := []*snapshot.View{v}
	frozenQueue, frozenRunning := queueOf(one), snapshot.MergeRunning(one)

	// Churn: cancels, completions, failures, more publishes.
	e.Cancel(3)
	if _, err := e.Fail(topology.LeafSwitchFailure(0)); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTo(100)
	p.Publish(e)
	p.Publish(e)

	if v.Seq != frozen.Seq || v.StateVersion != frozen.StateVersion ||
		v.UtilNow != frozen.UtilNow || !reflect.DeepEqual(v.Snap.Counts, frozen.Snap.Counts) {
		t.Fatalf("retained view mutated: %+v vs %+v", v, frozen)
	}
	if !slices.Equal(queueOf(one), frozenQueue) || !slices.Equal(snapshot.MergeRunning(one), frozenRunning) {
		t.Fatal("retained view's job slices mutated by later engine activity")
	}
}

// TestConcurrentLoadersSeeConsistentViews runs readers against a publishing
// writer under -race: every loaded view must be internally consistent and
// sequence numbers must be monotone per reader.
func TestConcurrentLoadersSeeConsistentViews(t *testing.T) {
	e := newEngine(t)
	p := snapshot.NewPublisher(e)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := p.Load()
				if v.Seq < lastSeq {
					t.Errorf("sequence went backwards: %d after %d", v.Seq, lastSeq)
					return
				}
				lastSeq = v.Seq
				queue, run := queueOf([]*snapshot.View{v}), snapshot.MergeRunning([]*snapshot.View{v})
				if len(queue) != v.Snap.QueueDepth || len(run) != v.Snap.RunningJobs {
					t.Errorf("inconsistent view: depth %d/%d running %d/%d",
						len(queue), v.Snap.QueueDepth, len(run), v.Snap.RunningJobs)
					return
				}
				if got := v.Snap.Counts.Submitted; got < int64(len(queue)+len(run)) {
					t.Errorf("view lost jobs: submitted %d < active %d", got, len(queue)+len(run))
					return
				}
			}
		}()
	}

	// Writer: the engine goroutine's role — mutate, then publish.
	for id := int64(1); id <= 400; id++ {
		if err := e.Submit(trace.Job{ID: id, Size: 1 + int(id%12), Arrival: float64(id) * 0.25, Runtime: 3}); err != nil {
			t.Fatal(err)
		}
		if id%3 == 0 {
			e.AdvanceTo(float64(id) * 0.25)
		}
		if id%5 == 0 {
			e.Cancel(id - 1)
		}
		p.Publish(e)
	}
	close(stop)
	readers.Wait()

	if got := p.Load().Seq; got != 400 {
		t.Fatalf("final seq %d, want 400", got)
	}
}

// TestPublishWorkIsIndependentOfActiveJobs is the work gate: after a one-op
// drain, a publish allocates about the same at 20 000 active jobs as at
// 2 000 (at most 1.5 times as much), where a copy of every active job would
// allocate ten times as much. Node 15 stays failed on a 16-node tree, so no
// 16-node job ever starts and every one stays queued. The bytes are averaged
// over 256 drains, so the new job lands at every offset of a chunk.
func TestPublishWorkIsIndependentOfActiveJobs(t *testing.T) {
	perPublish := func(active int) float64 {
		e := newEngine(t)
		if _, err := e.Fail(topology.NodeFailure(15)); err != nil {
			t.Fatal(err)
		}
		p := snapshot.NewPublisher(e)
		id := int64(0)
		submit := func() {
			id++
			if err := e.Submit(trace.Job{ID: id, Size: 16, Arrival: e.Now(), Runtime: 10}); err != nil {
				t.Fatal(err)
			}
			e.AdvanceTo(e.Now())
		}
		for id < int64(active) {
			submit()
		}
		p.Publish(e)
		var total uint64
		const drains = 256
		for i := 0; i < drains; i++ {
			submit()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p.Publish(e)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		if got := p.Load().Snap.QueueDepth; got != active+drains {
			t.Fatalf("%d jobs queued, want %d", got, active+drains)
		}
		return float64(total) / drains
	}
	small, large := perPublish(2000), perPublish(20000)
	t.Logf("bytes per publish: %.0f at 2 000 active jobs, %.0f at 20 000", small, large)
	if large > 1.5*small {
		t.Fatalf("a publish at 20 000 active jobs allocates %.0f bytes, %.2f times the %.0f at 2 000: publish is O(active) again",
			large, large/small, small)
	}
}
