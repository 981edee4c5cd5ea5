package snapshot_test

import (
	"reflect"
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
	if st, ok := v.Jobs[1]; !ok || st.State != engine.StateRunning {
		t.Fatalf("jobs index missing running job: %+v", v.Jobs)
	}
	if st, ok := v.Jobs[2]; !ok || st.State != engine.StateQueued {
		t.Fatalf("jobs index missing queued job: %+v", v.Jobs)
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
	frozenQueue := append([]engine.JobStatus(nil), v.Snap.Queue...)
	frozenRunning := append([]engine.JobStatus(nil), v.Snap.Running...)

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
	if !slices.Equal(v.Snap.Queue, frozenQueue) || !slices.Equal(v.Snap.Running, frozenRunning) {
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
				if len(v.Snap.Queue) != v.Snap.QueueDepth || len(v.Snap.Running) != v.Snap.RunningJobs {
					t.Errorf("inconsistent view: depth %d/%d running %d/%d",
						len(v.Snap.Queue), v.Snap.QueueDepth, len(v.Snap.Running), v.Snap.RunningJobs)
					return
				}
				if got := v.Snap.Counts.Submitted; got < int64(len(v.Snap.Queue)+len(v.Snap.Running)) {
					t.Errorf("view lost jobs: submitted %d < active %d", got, len(v.Snap.Queue)+len(v.Snap.Running))
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
