package sched

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/laas"
	"repro/internal/lcs"
	"repro/internal/scenario"
	"repro/internal/ta"
	"repro/internal/topology"
	"repro/internal/trace"
)

// tr builds a trace from jobs on a given system size.
func tr(nodes int, jobs ...trace.Job) *trace.Trace {
	return &trace.Trace{Name: "test", SystemNodes: nodes, RealArrivals: true, Jobs: jobs}
}

func job(id int64, size int, arr, run float64) trace.Job {
	return trace.Job{ID: id, Size: size, Arrival: arr, Runtime: run}
}

func newSched(a alloc.Allocator) *Scheduler {
	s := New(a, scenario.None{})
	s.MeasureAllocTime = false
	return s
}

func TestSingleJobRuns(t *testing.T) {
	tree := topology.MustNew(4) // 16 nodes
	s := newSched(baseline.NewAllocator(tree))
	res, err := s.Run(tr(16, job(1, 8, 0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %d", len(res.Records))
	}
	r := res.Records[0]
	if r.Start != 0 || r.End != 100 {
		t.Fatalf("start=%g end=%g", r.Start, r.End)
	}
	if r.Turnaround() != 100 {
		t.Fatalf("turnaround = %g", r.Turnaround())
	}
	if res.LastEnd != 100 {
		t.Fatalf("last end = %g", res.LastEnd)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	tree := topology.MustNew(4)
	s := newSched(baseline.NewAllocator(tree))
	s.DisableBackfill = true
	// Two machine-filling jobs: strictly sequential.
	res, err := s.Run(tr(16,
		job(1, 16, 0, 100),
		job(2, 16, 0, 50),
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Job.ID != 1 || res.Records[1].Job.ID != 2 {
		t.Fatal("completion order wrong")
	}
	if res.Records[1].Start != 100 {
		t.Fatalf("job 2 start = %g, want 100", res.Records[1].Start)
	}
}

func TestEASYBackfillStartsShortJobEarly(t *testing.T) {
	tree := topology.MustNew(4)
	jobs := []trace.Job{
		job(1, 15, 0, 100), // nearly fills the machine
		job(2, 16, 1, 100), // head, blocked until t=100
		job(3, 1, 2, 50),   // fits now, finishes by the shadow time: backfills
	}
	s := newSched(baseline.NewAllocator(tree))
	res, err := s.Run(tr(16, jobs...))
	if err != nil {
		t.Fatal(err)
	}
	var start3 float64 = -1
	for _, r := range res.Records {
		if r.Job.ID == 3 {
			start3 = r.Start
		}
	}
	if start3 != 2 {
		t.Fatalf("job 3 should backfill at t=2, started at %g", start3)
	}

	// Without backfill it must wait for FIFO order.
	s2 := newSched(baseline.NewAllocator(tree))
	s2.DisableBackfill = true
	res2, err := s2.Run(tr(16, jobs...))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res2.Records {
		if r.Job.ID == 3 && r.Start < 100 {
			t.Fatalf("FIFO-only run backfilled anyway (start %g)", r.Start)
		}
	}
}

func TestBackfillCannotDelayHeadReservation(t *testing.T) {
	tree := topology.MustNew(4)
	// Head needs the whole machine at shadow time 100; a long 8-node job
	// would displace it and must be denied.
	jobs := []trace.Job{
		job(1, 8, 0, 100),
		job(2, 16, 1, 100), // head
		job(3, 8, 2, 300),  // fits now but would hold 8 nodes past t=100
	}
	s := newSched(baseline.NewAllocator(tree))
	res, err := s.Run(tr(16, jobs...))
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int64]float64{}
	for _, r := range res.Records {
		starts[r.Job.ID] = r.Start
	}
	if starts[2] != 100 {
		t.Fatalf("head should start exactly at its reservation: %g", starts[2])
	}
	if starts[3] < 200 {
		t.Fatalf("long backfill candidate should have been denied (start %g)", starts[3])
	}
}

func TestBackfillAllowedWhenHeadStillFits(t *testing.T) {
	tree := topology.MustNew(4)
	// Head needs 8 at shadow; the long 4-node candidate leaves 12 free.
	jobs := []trace.Job{
		job(1, 12, 0, 100),
		job(2, 8, 1, 100), // head, blocked (only 4 free)
		job(3, 4, 2, 300), // fits now; head still fits at shadow
	}
	s := newSched(baseline.NewAllocator(tree))
	res, err := s.Run(tr(16, jobs...))
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int64]float64{}
	for _, r := range res.Records {
		starts[r.Job.ID] = r.Start
	}
	if starts[3] != 2 {
		t.Fatalf("harmless long candidate should backfill at 2, got %g", starts[3])
	}
	if starts[2] != 100 {
		t.Fatalf("head start = %g, want 100", starts[2])
	}
}

func TestSpeedupsShortenIsolatedRuntimes(t *testing.T) {
	tree := topology.MustNew(4)
	a := core.NewAllocator(tree)
	s := New(a, scenario.Fixed{Pct: 20})
	s.MeasureAllocTime = false
	res, err := s.Run(tr(16, job(1, 8, 0, 120)))
	if err != nil {
		t.Fatal(err)
	}
	want := 120 / 1.2
	if math.Abs(res.Records[0].End-want) > 1e-9 {
		t.Fatalf("isolated end = %g, want %g", res.Records[0].End, want)
	}

	// Baseline never speeds up.
	sb := New(baseline.NewAllocator(tree), scenario.Fixed{Pct: 20})
	sb.MeasureAllocTime = false
	resb, err := sb.Run(tr(16, job(1, 8, 0, 120)))
	if err != nil {
		t.Fatal(err)
	}
	if resb.Records[0].End != 120 {
		t.Fatalf("baseline end = %g, want 120", resb.Records[0].End)
	}
}

func TestInfeasibleJobRejected(t *testing.T) {
	tree := topology.MustNew(4)
	s := newSched(baseline.NewAllocator(tree))
	res, err := s.Run(tr(16,
		job(1, 99, 0, 10), // larger than the machine
		job(2, 4, 0, 10),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 1 || res.Rejected[0].ID != 1 {
		t.Fatalf("rejected = %v", res.Rejected)
	}
	if len(res.Records) != 1 || res.Records[0].Job.ID != 2 {
		t.Fatal("feasible job should still run")
	}
}

func TestUtilSeriesConservation(t *testing.T) {
	tree := topology.MustNew(4)
	s := newSched(baseline.NewAllocator(tree))
	res, err := s.Run(tr(16,
		job(1, 8, 0, 100),
		job(2, 4, 10, 50),
		job(3, 4, 20, 200),
	))
	if err != nil {
		t.Fatal(err)
	}
	// The series must start and end at zero used nodes and never go
	// negative or above the system size.
	last := res.UtilSeries[len(res.UtilSeries)-1]
	if last.Used != 0 {
		t.Fatalf("final used = %d", last.Used)
	}
	for _, p := range res.UtilSeries {
		if p.Used < 0 || p.Used > 16 {
			t.Fatalf("used out of range: %+v", p)
		}
	}
}

// TestAllSchedulersCompleteSmallTrace runs every scheme over the same small
// synthetic workload and checks global invariants: every feasible job runs
// exactly once, nothing leaks, and every allocator ends fully free.
func TestAllSchedulersCompleteSmallTrace(t *testing.T) {
	tree := topology.MustNew(8) // 128 nodes
	synth := trace.Synth(trace.SynthConfig{
		Name: "mini", Jobs: 300, MeanSize: 10, MaxSize: 60,
		MinRun: 5, MaxRun: 50, SystemNodes: 128, Seed: 42,
	})
	allocs := []alloc.Allocator{
		baseline.NewAllocator(tree),
		core.NewAllocator(tree),
		laas.NewAllocator(tree),
		ta.NewAllocator(tree),
		lcs.NewAllocator(tree),
	}
	for _, a := range allocs {
		s := newSched(a)
		res, err := s.Run(synth)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if len(res.Records)+len(res.Rejected) != 300 {
			t.Fatalf("%s: %d records + %d rejected != 300", a.Name(), len(res.Records), len(res.Rejected))
		}
		if len(res.Rejected) != 0 {
			t.Fatalf("%s: unexpected rejections %v", a.Name(), res.Rejected)
		}
		if a.FreeNodes() != tree.Nodes() {
			t.Fatalf("%s: %d nodes leaked", a.Name(), tree.Nodes()-a.FreeNodes())
		}
		if res.SteadyEnd <= 0 {
			t.Fatalf("%s: all-at-zero trace must form a queue", a.Name())
		}
	}
}

func TestLaaSChargesWholeLeavesButCountsRequested(t *testing.T) {
	tree := topology.MustNew(4) // 2-node leaves
	s := newSched(laas.NewAllocator(tree))
	res, err := s.Run(tr(16, job(1, 3, 0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	// Used-node accounting counts the requested 3, not the rounded 4.
	maxUsed := 0
	for _, p := range res.UtilSeries {
		if p.Used > maxUsed {
			maxUsed = p.Used
		}
	}
	if maxUsed != 3 {
		t.Fatalf("used = %d, want requested size 3", maxUsed)
	}
}

func TestLCSSchedulerRuns(t *testing.T) {
	tree := topology.MustNew(6)
	s := newSched(lcs.NewAllocator(tree))
	res, err := s.Run(tr(tree.Nodes(),
		job(1, 20, 0, 50), job(2, 30, 0, 60), job(3, 10, 0, 70), job(4, 54, 0, 10),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("records = %d", len(res.Records))
	}
}

// TestRunDoesNotMutateScheduler pins a receiver-mutation regression: Run
// used to write the window default back into the struct, so a caller's
// zero-valued Scheduler silently changed between runs (and a copy made
// before the first Run no longer compared equal).
func TestRunDoesNotMutateScheduler(t *testing.T) {
	tree := topology.MustNew(4)
	s := Scheduler{Config: engine.Config{Alloc: baseline.NewAllocator(tree), Scenario: scenario.None{}}}
	before := s
	if _, err := s.Run(tr(16, job(1, 4, 0, 10), job(2, 8, 1, 5))); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, before) {
		t.Fatalf("Run mutated the scheduler: before %+v after %+v", before, s)
	}
	if s.Window != 0 {
		t.Fatalf("Window = %d, want the zero value preserved", s.Window)
	}
	// The default must still apply: a second run behaves identically.
	r2, err := s.Run(tr(16, job(1, 4, 0, 10), job(2, 8, 1, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Records) != 2 {
		t.Fatalf("second run records = %d, want 2", len(r2.Records))
	}
}

// TestEngineGetsEveryConfigField pins that a Scheduler hands its whole
// engine.Config to the engine, adding only History (a Result is built from
// the per-job history). Every other field is set to a non-zero value, and the
// reflect walk fails when a new engine.Config field is left out here.
func TestEngineGetsEveryConfigField(t *testing.T) {
	tree := topology.MustNew(4)
	cfg := engine.Config{
		Alloc:            baseline.NewAllocator(tree),
		Scenario:         scenario.Fixed{Pct: 10},
		Window:           7,
		DisableBackfill:  true,
		ApplySpeedups:    true,
		MeasureAllocTime: true,
		OnFailure:        engine.FailKill,
		Elastic:          true,
		TotalNodes:       12,
	}
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "History" && v.Field(i).IsZero() {
			t.Fatalf("engine.Config.%s is zero; set it so the test covers it", name)
		}
	}
	s := Scheduler{Config: cfg}
	eng, err := s.Engine()
	if err != nil {
		t.Fatal(err)
	}
	want := cfg
	want.History = true
	if got := eng.Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine config = %+v, want %+v", got, want)
	}
	if eng.TotalNodes() != 12 {
		t.Fatalf("engine TotalNodes = %d, want the configured 12", eng.TotalNodes())
	}
}

// TestRunSurfacesEngineErrors pins that Run and ResultFrom return errors
// instead of a partial Result: a scheduler without an allocator, a trace
// that repeats a job ID, and an engine that still runs a job.
func TestRunSurfacesEngineErrors(t *testing.T) {
	if _, err := (&Scheduler{}).Run(tr(16, job(1, 4, 0, 10))); err == nil {
		t.Fatal("a scheduler without an allocator must not run")
	}
	s := newSched(baseline.NewAllocator(topology.MustNew(4)))
	if _, err := s.Run(tr(16, job(1, 4, 0, 10), job(1, 4, 1, 10))); err == nil {
		t.Fatal("a repeated job ID must fail the run")
	}
	eng, err := s.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(job(2, 4, 0, 10)); err != nil {
		t.Fatal(err)
	}
	eng.Step() // starts job 2
	if _, err := ResultFrom(eng, "test"); err == nil {
		t.Fatal("ResultFrom must refuse an engine with a running job")
	}
}
