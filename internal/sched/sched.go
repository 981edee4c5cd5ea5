// Package sched implements the batch job-scheduling simulator: FIFO service
// order with EASY backfilling (Section 5.3), pluggable over any
// alloc.Allocator and any performance scenario.
//
// The scheduling core itself — FIFO head service, the EASY reservation with
// its shadow-time computation, and the backfill admission checks — lives in
// internal/engine, an incremental event-driven engine that also powers the
// online scheduling daemon (internal/server). Scheduler.Run is a thin batch
// driver over that engine: it submits the whole trace, steps the engine to
// exhaustion, and packages the engine's accounting into a Result. Results
// are bit-for-bit identical to the original monolithic run loop.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/engine"
	"repro/internal/failtrace"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// DefaultWindow is the paper's backfill lookahead (Section 5.4.3).
const DefaultWindow = engine.DefaultWindow

// Scheduler runs one trace against one allocator under one scenario.
type Scheduler struct {
	Alloc    alloc.Allocator
	Scenario scenario.Scenario
	// Window is the EASY backfill lookahead; 0 means DefaultWindow.
	Window int
	// DisableBackfill reverts to pure FIFO (the mode the LaaS simulator
	// originally shipped with); exposed for the ablation benchmarks.
	DisableBackfill bool
	// Conservative restricts backfilling to candidates that finish by the
	// head's shadow time, never admitting jobs that merely prove they do
	// not displace the reservation. This approximates conservative
	// backfilling's no-delay guarantee for every queued job without its
	// per-job reservation profile (which is prohibitively expensive under
	// placement constraints).
	Conservative bool
	// ApplySpeedups scales runtimes by the scenario (set for isolating
	// schedulers; Baseline jobs never speed up).
	ApplySpeedups bool
	// MeasureAllocTime records wall-clock time spent in Allocate calls on
	// the live state (Table 3). Disable for deterministic tests.
	MeasureAllocTime bool
	// FailEvents injects timed resource failures during Run, interleaved
	// with job arrivals and completions; empty leaves the run untouched.
	FailEvents []failtrace.Event
	// OnFailure picks what happens to running jobs hit by a failure.
	OnFailure engine.FailurePolicy
	// Elastic enables the malleability paths (shrink under FailShrink,
	// grow into idle capacity, deadline admission, priority preemption)
	// for jobs that declare elastic fields; rigid traces run identically
	// with it on or off.
	Elastic bool
}

// New returns a scheduler with the paper's defaults. Speed-ups apply unless
// the allocator is the Baseline.
func New(a alloc.Allocator, sc scenario.Scenario) *Scheduler {
	return &Scheduler{
		Alloc:            a,
		Scenario:         sc,
		Window:           DefaultWindow,
		ApplySpeedups:    a.Name() != "Baseline",
		MeasureAllocTime: true,
	}
}

// Record is the outcome of one job.
type Record = engine.Record

// UtilPoint is one step of the used-node time series; see engine.UtilPoint.
type UtilPoint = engine.UtilPoint

// Result aggregates one simulation run.
type Result struct {
	Scheme string
	Trace  string
	// SystemNodes is the simulated cluster size.
	SystemNodes int
	Records     []Record
	// Rejected lists jobs that could not run even on an empty machine
	// (e.g. larger than the system); they are excluded from metrics.
	Rejected []trace.Job
	// UtilSeries is the used-node step function over the whole run.
	UtilSeries []UtilPoint
	// InstSamples holds the instantaneous utilization (used/total) observed
	// at every scheduling or completion event (Table 2).
	InstSamples []float64
	// FirstArrival and LastEnd bound the run; SteadyEnd is the last event
	// time at which the queue was non-empty, i.e. the start of the final
	// drain (Section 5's steady-state cutoff).
	FirstArrival, LastEnd, SteadyEnd float64
	// AllocSeconds is wall-clock time spent in live Allocate calls;
	// AllocCalls counts them (Table 3 divides by job count).
	AllocSeconds float64
	AllocCalls   int
}

// Engine returns a fresh incremental engine configured exactly as this
// scheduler; Run is equivalent to submitting the whole trace to it and
// stepping to exhaustion.
func (s *Scheduler) Engine() (*engine.Engine, error) {
	w := s.Window
	if w == 0 {
		w = DefaultWindow
	}
	return engine.New(engine.Config{
		Alloc:            s.Alloc,
		Scenario:         s.Scenario,
		Window:           w,
		DisableBackfill:  s.DisableBackfill,
		Conservative:     s.Conservative,
		ApplySpeedups:    s.ApplySpeedups,
		OnFailure:        s.OnFailure,
		Elastic:          s.Elastic,
		MeasureAllocTime: s.MeasureAllocTime,
		History:          true, // Result is built from it
	})
}

// Run simulates the whole trace and returns the result. The trace is not
// modified; jobs are processed in arrival order with ties broken by ID.
func (s *Scheduler) Run(tr *trace.Trace) (*Result, error) {
	eng, err := s.Engine()
	if err != nil {
		return nil, err
	}
	jobs := append([]trace.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].Arrival != jobs[j].Arrival {
			return jobs[i].Arrival < jobs[j].Arrival
		}
		return jobs[i].ID < jobs[j].ID
	})
	for _, j := range jobs {
		if err := eng.Submit(j); err != nil {
			return nil, err
		}
	}
	if len(s.FailEvents) > 0 {
		if _, err := failtrace.Replay(eng, s.FailEvents); err != nil {
			return nil, err
		}
	}
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	if len(s.FailEvents) > 0 {
		// A still-degraded machine can strand queued jobs (rejection verdicts
		// are suspended while failures are active); surface that instead of
		// returning a result with jobs silently missing.
		if snap := eng.Snapshot(); snap.QueueDepth > 0 {
			return nil, fmt.Errorf("sched: %d jobs still queued on a degraded machine; recover resources in the fail trace", snap.QueueDepth)
		}
	}
	return ResultFrom(eng, tr.Name)
}

// ResultFrom packages a drained engine's accounting as a batch Result. It
// errors if the engine still holds queued or running jobs (Run's drain
// invariant).
func ResultFrom(eng *engine.Engine, traceName string) (*Result, error) {
	snap := eng.Snapshot()
	if snap.UsedNodes != 0 || snap.RunningJobs != 0 {
		return nil, fmt.Errorf("sched: %d nodes and %d jobs still running after drain", snap.UsedNodes, snap.RunningJobs)
	}
	acc := eng.Accounting()
	return &Result{
		Scheme:       eng.Config().Alloc.Name(),
		Trace:        traceName,
		SystemNodes:  snap.TotalNodes,
		Records:      acc.Records,
		Rejected:     acc.Rejected,
		UtilSeries:   acc.UtilSeries,
		InstSamples:  acc.InstSamples,
		FirstArrival: acc.FirstArrival,
		LastEnd:      acc.LastEnd,
		SteadyEnd:    acc.SteadyEnd,
		AllocSeconds: acc.AllocSeconds,
		AllocCalls:   acc.AllocCalls,
	}, nil
}
