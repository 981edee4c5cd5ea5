// Package sched is the batch job-scheduling simulator: one trace run to
// completion on internal/engine, which implements FIFO service with EASY
// backfilling (Section 5.3) over any alloc.Allocator and also powers the
// online daemon (internal/server). A Scheduler is an engine configuration
// plus a fail trace; Run submits the whole trace, steps the engine to
// exhaustion, and labels the engine's accounting as a Result.
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

// Scheduler runs one trace against one allocator under one scenario; the
// embedded engine.Config is the scheduling policy.
type Scheduler struct {
	engine.Config
	// FailEvents injects timed resource failures during Run, interleaved
	// with job arrivals and completions; empty leaves the run untouched.
	FailEvents []failtrace.Event
}

// New returns a scheduler with the paper's defaults. Speed-ups apply unless
// the allocator is the Baseline.
func New(a alloc.Allocator, sc scenario.Scenario) *Scheduler {
	return &Scheduler{Config: engine.Config{
		Alloc:            a,
		Scenario:         sc,
		Window:           engine.DefaultWindow,
		ApplySpeedups:    a.Name() != "Baseline",
		MeasureAllocTime: true,
	}}
}

// Result aggregates one simulation run: the engine's accounting labelled
// with the scheme, the trace and the simulated cluster size.
type Result struct {
	Scheme, Trace string
	SystemNodes   int
	engine.Accounting
}

// Engine returns a fresh incremental engine configured exactly as this
// scheduler, with the per-job history a Result is built from; Run is
// equivalent to submitting the whole trace to it and stepping to exhaustion.
func (s *Scheduler) Engine() (*engine.Engine, error) {
	cfg := s.Config
	cfg.History = true
	return engine.New(cfg)
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
	for _, ok := eng.Step(); ok; _, ok = eng.Step() {
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
	return &Result{
		Scheme:      eng.Config().Alloc.Name(),
		Trace:       traceName,
		SystemNodes: snap.TotalNodes,
		Accounting:  eng.Accounting(),
	}, nil
}
