package metrics

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestUtilizationSimpleWindow(t *testing.T) {
	// 8 of 16 nodes busy from t=0 to t=100, queue active until t=60.
	r := &sched.Result{SystemNodes: 16, Accounting: engine.Accounting{
		FirstArrival: 0,
		LastEnd:      100,
		SteadyEnd:    60,
		UtilSeries:   []engine.UtilPoint{{T: 0, Used: 8}, {T: 100, Used: 0}},
	}}
	got := Utilization(r)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.5", got)
	}
}

func TestUtilizationExcludesDrain(t *testing.T) {
	// Full machine until t=50, then half until t=100; queue empties at 50:
	// the drain (50..100) must not count.
	r := &sched.Result{SystemNodes: 16, Accounting: engine.Accounting{
		FirstArrival: 0,
		LastEnd:      100,
		SteadyEnd:    50,
		UtilSeries:   []engine.UtilPoint{{T: 0, Used: 16}, {T: 50, Used: 8}, {T: 100, Used: 0}},
	}}
	if got := Utilization(r); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("utilization = %g, want 1.0 (drain excluded)", got)
	}
}

func TestUtilizationFallsBackToFullSpan(t *testing.T) {
	// Queue never formed: SteadyEnd is zero, so the full span is used.
	r := &sched.Result{SystemNodes: 16, Accounting: engine.Accounting{
		FirstArrival: 0,
		LastEnd:      100,
		UtilSeries:   []engine.UtilPoint{{T: 0, Used: 4}, {T: 100, Used: 0}},
	}}
	if got := Utilization(r); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.25", got)
	}
}

func TestMeanTurnaroundFilters(t *testing.T) {
	r := &sched.Result{Accounting: engine.Accounting{
		Records: []engine.Record{
			{Job: trace.Job{Size: 1, Arrival: 0}, End: 10},
			{Job: trace.Job{Size: 200, Arrival: 0}, End: 100},
			{Job: trace.Job{Size: 150, Arrival: 50}, End: 250},
		},
	}}
	if got := MeanTurnaround(r, 0); math.Abs(got-(10+100+200)/3.0) > 1e-12 {
		t.Fatalf("all-jobs turnaround = %g", got)
	}
	if got := MeanTurnaround(r, 100); math.Abs(got-150) > 1e-12 {
		t.Fatalf("large-jobs turnaround = %g", got)
	}
	if MeanTurnaround(r, 1000) != 0 {
		t.Fatal("empty filter must return 0")
	}
}

func TestInstHistogramBuckets(t *testing.T) {
	r := &sched.Result{Accounting: engine.Accounting{
		InstSamples: []float64{1.0, 0.985, 0.96, 0.93, 0.85, 0.7, 0.5, 0.0},
	}}
	got := InstHistogram(r)
	want := []int{2, 1, 1, 1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %s = %d, want %d", Table2Labels[i], got[i], want[i])
		}
	}
}

func TestMakespanAndSchedTime(t *testing.T) {
	r := &sched.Result{Accounting: engine.Accounting{
		FirstArrival: 10,
		LastEnd:      110,
		AllocSeconds: 0.5,
		Records:      make([]engine.Record, 99),
		Rejected:     make([]trace.Job, 1),
	}}
	if Makespan(r) != 100 {
		t.Fatal("makespan wrong")
	}
	if got := AvgSchedTime(r); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("sched time = %g", got)
	}
}
