// Package engine is the incremental, event-driven core of the scheduler:
// FIFO service order with EASY backfilling (Section 5.3) over any
// alloc.Allocator, driven one event at a time. The same engine powers both
// the batch trace simulator (internal/sched: a Config plus a fail trace,
// stepped to exhaustion) and the online scheduling daemon (internal/server,
// cmd/jigsawd), which feeds it live submissions and cancellations.
//
// The engine is single-threaded by design: it is not safe for concurrent
// use, and the online server serializes every call onto one goroutine (see
// internal/server). Virtual time only moves forward — Submit clamps
// arrivals to the current clock, Step processes the next event timestamp,
// and AdvanceTo drains every event up to a deadline.
//
// EASY backfilling gives only the job at the head of the queue a
// reservation. When the head does not fit, its shadow time — the earliest
// time it could start given the predicted completions of running jobs — is
// computed by replaying completions in a what-if pass. Queued jobs within
// the lookahead window may then start immediately if they fit now and either
// finish by the shadow time or provably do not displace the head's
// reservation. Predicted runtimes equal actual runtimes, the same
// information the paper's simulator used.
//
// Every what-if pass is the same completion replay (replay) over a state
// that is thrown away afterwards. Where only the answer is kept — FIFO
// reservations, deadline admission — whatIf picks the state: the live one
// under an undo-journal transaction (alloc.TxnAllocator) when the allocator
// has one, a clone otherwise. EASY backfill needs two states at once, so its
// reservation always replays onto a clone and keeps it (see reservation).
// Differential tests pin the transactional and the clone mechanism
// bit-for-bit equal across every policy, with backfill on and off.
package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// DefaultWindow is the paper's backfill lookahead (Section 5.4.3).
const DefaultWindow = 50

// maxInt is the monotone feasibility threshold's "nothing failed" value.
const maxInt = int(^uint(0) >> 1)

// feasKey identifies a memoizable allocation question: the requested size
// plus the allocator's feasibility class for the job (bandwidth class for
// the link-sharing policies, 0 for the rest).
type feasKey struct {
	size  int
	class int32
}

// feasVerdict is what the memo holds for a feasKey (DESIGN.md §11). The two
// refusals exclude each other: a displacing placement is a placement.
type feasVerdict uint8

const (
	// feasUnknown is the zero value: no verdict, run the search.
	feasUnknown feasVerdict = iota
	// feasNoPlacement: Allocate fails on the live state.
	feasNoPlacement
	// feasDisplaces: Allocate succeeds, and the placement it charges, still
	// running at the shadow time, leaves no room for the head there.
	feasDisplaces
)

// timeEps absorbs floating-point slack in shadow-time comparisons.
const timeEps = 1e-9

// Config selects the scheduling policy the engine runs: EASY backfilling
// within Window, or pure FIFO with DisableBackfill. The batch simulator
// embeds it (sched.Scheduler) and the daemon builds one per lane.
type Config struct {
	// Alloc is the placement policy; required.
	Alloc alloc.Allocator
	// Scenario assigns isolated-execution speed-ups; nil means none apply.
	Scenario scenario.Scenario
	// Window is the EASY backfill lookahead; 0 means DefaultWindow.
	Window int
	// DisableBackfill reverts to pure FIFO.
	DisableBackfill bool
	// ApplySpeedups scales runtimes by the scenario.
	ApplySpeedups bool
	// MeasureAllocTime records wall-clock time spent in Allocate calls on
	// the live state (Table 3). Disable for deterministic tests.
	MeasureAllocTime bool
	// OnFailure selects what happens to running jobs whose allocation
	// intersects an injected failure (Fail). The zero value is FailRequeue.
	OnFailure FailurePolicy
	// Elastic enables the malleability moves (DESIGN.md §17): shrink on
	// failure under FailShrink, grow into freed capacity, priority
	// preemption, and deadline admission verdicts. Every elastic path is
	// additionally gated on the job actually declaring elastic fields
	// (MinNodes/MaxNodes/Priority/Deadline), so a trace of rigid jobs is
	// scheduled bit-for-bit identically with Elastic on or off.
	Elastic bool
	// TotalNodes overrides the cluster size reported by the engine
	// (TotalNodes, Snapshot, utilization denominators). Zero means the
	// allocator tree's node count. A cell-restricted shard sets this to its
	// cell's node count so per-shard utilization is meaningful even though
	// the shard's State spans the full-geometry tree (topology.RestrictToPods).
	TotalNodes int
	// History makes the engine keep the per-job evaluation history in its
	// Accounting (Records, Rejected, Killed, UtilSeries, InstSamples): what
	// Figures 6–8 and Table 2 are computed from, and memory that grows with
	// every job. The batch simulator asks for it (sched.Scheduler.Engine);
	// the daemon does not and keeps only the O(1) aggregates.
	History bool
}

// FailurePolicy selects the engine's treatment of running jobs hit by a
// failure (DESIGN.md §12).
type FailurePolicy int

const (
	// FailRequeue returns affected jobs to the back of the queue; they
	// rerun from scratch (full runtime) once resources allow.
	FailRequeue FailurePolicy = iota
	// FailKill terminates affected jobs permanently (StateKilled).
	FailKill
	// FailShrink re-places an affected malleable job (trace.Job.MinSize
	// below its size) on the surviving fabric at the largest legal size in
	// [MinSize, Size], conserving its remaining work (DESIGN.md §17). It
	// requires Config.Elastic; rigid jobs — and every job when Elastic is
	// off — fall back to whole-job requeue, making the policy behaviorally
	// identical to FailRequeue on pre-elastic traces.
	FailShrink
)

// String returns the wire name used by flags and the HTTP API.
func (p FailurePolicy) String() string {
	switch p {
	case FailRequeue:
		return "requeue"
	case FailKill:
		return "kill"
	case FailShrink:
		return "shrink"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseFailurePolicy inverts FailurePolicy.String.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "requeue", "":
		return FailRequeue, nil
	case "kill":
		return FailKill, nil
	case "shrink":
		return FailShrink, nil
	}
	return 0, fmt.Errorf("engine: unknown failure policy %q", s)
}

// State is the lifecycle stage of a submitted job.
type State int

// Job lifecycle states, in the order they can occur.
const (
	StateQueued State = iota
	StateRunning
	StateCompleted
	StateRejected
	StateCancelled
	// StateKilled marks a job terminated by a resource failure under the
	// FailKill policy. (Requeued jobs go back to StateQueued instead.)
	StateKilled
)

// String returns the lowercase wire name used by the HTTP API.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateRejected:
		return "rejected"
	case StateCancelled:
		return "cancelled"
	case StateKilled:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Counts tallies job outcomes over the engine's lifetime. Requeued counts
// failure-induced requeues (a job requeued twice counts twice); Killed counts
// jobs terminated by failures under the FailKill policy. The elastic
// counters tally malleability moves (DESIGN.md §17): Shrunk counts running
// jobs re-placed on failure under FailShrink (at a strictly smaller size, or
// migrated at full size when the surviving fabric still holds one), Grown
// counts running jobs expanded into freed capacity, and Preempted counts
// checkpoint-requeues of lower-priority victims (each displacement of a job
// counts once, like Requeued).
type Counts struct {
	Submitted, Started, Completed, Rejected, Cancelled int64
	Requeued, Killed                                   int64
	Shrunk, Grown, Preempted                           int64
}

// Record is the outcome of one completed job.
type Record struct {
	Job trace.Job
	// Runtime is the effective runtime used (after any speed-up).
	Runtime    float64
	Start, End float64
}

// Turnaround is the time from arrival to completion.
func (r Record) Turnaround() float64 { return r.End - r.Job.Arrival }

// UtilPoint is one step of the used-node time series: from T onward (until
// the next point), Used nodes were doing work. "Used" counts requested job
// sizes, never rounded-up allocations, matching the paper's utilization
// definition.
type UtilPoint struct {
	T    float64
	Used int
}

// Accounting is the evaluation-metric ledger the engine accumulates; the
// batch simulator turns it into a sched.Result and the daemon's /metrics
// endpoint reads it live. The slices (Records, Rejected, UtilSeries,
// InstSamples, Killed) are the per-job history and stay empty unless
// Config.History is set; the scalars are always maintained. Slices are owned
// by the engine — callers must treat them as read-only.
type Accounting struct {
	Records  []Record
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
	// AllocCalls counts them (Table 3 divides by job count). Allocation
	// attempts answered by the feasibility cache still count: AllocCalls is
	// the number of logical placement questions asked, so it is identical
	// with and without the cache.
	AllocSeconds float64
	AllocCalls   int
	// FeasCacheHits counts allocation attempts the negative-feasibility cache
	// refused without running the allocator's search: "no placement", and for
	// a backfill candidate that runs past the shadow time "its placement
	// displaces the head". FeasCacheMisses counts consults that fell through
	// to a real search. FeasCacheInvalidations counts the times a change of
	// the live state discarded a non-empty cache; a probe the scheduler
	// charged and released again is not one (feasUndone). All three stay zero
	// when the allocator does not support the cache
	// (alloc.FeasibilityClasser).
	FeasCacheHits, FeasCacheMisses, FeasCacheInvalidations int
	// Killed lists jobs terminated by failures under the FailKill policy
	// (empty unless Fail was called on a kill-policy engine).
	Killed []trace.Job
}

// JobStatus is a point-in-time view of one submitted job.
type JobStatus struct {
	Job   trace.Job
	State State
	// Runtime is the effective (possibly sped-up) runtime.
	Runtime float64
	// Start is set once the job runs; End is the (predicted, then actual)
	// completion time, or the cancellation time for cancelled running jobs.
	Start, End float64
	// Verdict is the deadline admission verdict computed at submit time
	// (VerdictNone unless the engine is elastic and the job declared a
	// deadline).
	Verdict Verdict
}

// Summary is the engine's observable state that fits in a fixed number of
// words: clock, occupancy, counts and the failed-resource gauges.
type Summary struct {
	Now           float64
	TotalNodes    int
	UsedNodes     int
	FreeNodes     int
	QueueDepth    int
	RunningJobs   int
	PendingEvents int
	Counts        Counts
	// FailedNodes/FailedLinks/FailedSwitches count the currently-failed
	// resources; all zero on a healthy fabric.
	FailedNodes    int
	FailedLinks    int
	FailedSwitches int
}

// Snapshot is a consistent view of the engine for observers: the Summary
// plus copies of the job lists.
type Snapshot struct {
	Summary
	// Queue lists waiting jobs in FIFO order; Running lists started jobs
	// ordered by start time then ID.
	Queue   []JobStatus
	Running []JobStatus
}

// jobItem is a submitted job with its effective runtime and lifecycle state.
type jobItem struct {
	j     trace.Job
	eff   float64
	state State
	start float64
	end   float64
	rj    *runningJob
	// verdict is the submit-time deadline admission verdict (elastic only).
	verdict Verdict
	// seq is the job's FIFO key while it is in the queue (0 otherwise), and
	// shown the key the previous Changes reported; touched marks the job
	// as already on the touched list. placed marks a job StartPlaced
	// started: a slice of a job other engines may run too.
	seq, shown uint64
	touched    bool
	placed     bool
}

func (it *jobItem) status() JobStatus {
	return JobStatus{Job: it.j, State: it.state, Runtime: it.eff, Start: it.start, End: it.end, Verdict: it.verdict}
}

// runningJob is a started job awaiting completion. Cancellation releases its
// resources immediately and leaves the completion event in the heap as a
// tombstone, skipped when popped.
type runningJob struct {
	it        *jobItem
	pl        *topology.Placement
	start     float64
	end       float64
	cancelled bool
}

// tombstone marks the pending completion event to be skipped and drops what
// it would otherwise pin (the job and its released placement) until the
// event's timestamp — hours away for a long job on a wall-clock daemon.
func (rj *runningJob) tombstone() {
	rj.cancelled = true
	rj.it, rj.pl = nil, nil
}

// Engine is the incremental scheduler. The zero value is not usable;
// construct with New. Not safe for concurrent use.
type Engine struct {
	cfg    Config
	window int

	events sim.Queue
	now    float64

	queue   []*jobItem
	running map[*runningJob]struct{}
	// jobs is the active set: submitted jobs that are not yet terminal
	// (awaiting arrival, queued, or running).
	jobs map[int64]*jobItem
	// done is the terminal ledger: the final status of every completed,
	// cancelled, rejected or killed job, kept so a finished ID still answers
	// Status and Cancel and still counts as a duplicate. Key and value hold
	// no pointers, so the runtime allocates the map's storage as memory the
	// garbage collector never scans (TestLedgerIsPointerFree).
	done  map[int64]JobStatus
	used  int
	total int

	// releaseEpoch counts completions (and running-job cancellations). A
	// blocked head job can only become placeable after a release, so FIFO
	// retries are cached against it: allocations made since (backfills)
	// only consume resources and cannot unblock the head.
	releaseEpoch int64
	// cancelEpoch counts only running-job cancellations. Reservations are
	// cached against it rather than releaseEpoch: a natural completion is a
	// release the reservation's what-if replay already predicted, and the
	// backfills started since only take resources. For a policy whose
	// "fits" verdict is monotone in free resources, a fresh replay would
	// then find the same shadow time, shadow-time state and drained-machine
	// rejection verdict for the same head. LC+S's verdict is not monotone —
	// its search stops at a step budget, so a fuller state can succeed where
	// an emptier one ran out — and for LC+S the cache changes decisions
	// (TestReservationCacheMatchesRecompute, DESIGN.md §10). A cancellation
	// frees resources the replay never saw and can pull the shadow time
	// earlier, so it must invalidate.
	cancelEpoch int64
	// headBlocked caches the identity and epoch of the last failed head
	// attempt.
	headBlocked      bool
	headBlockedID    int64
	headBlockedEpoch int64
	// Cached reservation for the blocked head: the shadow time plus, for
	// EASY backfill, the shadow-time what-if state — a clone advanced to the
	// shadow time, kept current by mirroring backfilled jobs that run past
	// it. FIFO reservations keep no state (resvSnap stays nil): they only
	// consume the shadow time and the fits-at-all verdict.
	resvValid  bool
	resvID     int64
	resvEpoch  int64
	resvShadow float64
	resvSnap   alloc.Allocator
	resvOK     bool

	// txnAlloc is non-nil when the allocator supports undo-journal
	// transactions; only whatIf looks at it.
	txnAlloc alloc.TxnAllocator
	// elasticPF is non-nil when the allocator exposes its partition search
	// (alloc.PartitionFinder); place then re-verifies elastic placements
	// with partition.Verify before charging them. Asserted once here so the
	// placement hot path pays no interface assertion per call.
	elasticPF alloc.PartitionFinder
	// byEnd is replay's reusable sort scratch.
	byEnd []*runningJob

	// Negative-feasibility cache (DESIGN.md §11): refusals the scheduler has
	// already worked out on the live state, each holding for every job of the
	// same (size, class) until the live state changes. feasClass is non-nil
	// when the allocator implements alloc.FeasibilityClasser; without it
	// there is no cache. Verdicts are about the live state only (place, and
	// replay when it runs on the live state) — a clone has its own State,
	// whose versions are not comparable with the live one's.
	feasClass func(topology.JobID) int32
	// feasMono is set when the allocator additionally declares
	// alloc.MonotoneFeasibility; "no placement" then needs no map entry, only
	// a threshold: the smallest size seen to fail at the current version.
	feasMono bool
	// feasVersion is the live-state version the cached verdicts hold at.
	feasVersion uint64
	// feasMemo holds the verdict per (size, class): "no placement"
	// (non-monotone mode) and "displaces the head" (both modes). The latter
	// also depends on the reservation, so scheduleQueue drops those entries
	// where it computes a new one.
	feasMemo map[feasKey]feasVerdict
	// feasMin is the monotone-mode threshold; maxInt means "nothing failed"
	// and is all it ever holds in non-monotone mode.
	feasMin int

	// lastUtil is the current step of the used-node series (the last
	// UtilSeries point when history is kept); haveUtil is false until the
	// first one.
	lastUtil UtilPoint
	haveUtil bool
	// Incremental utilization integrals (read by UtilizationTo and
	// SteadyUtilization): utilIntegral is ∫used dt from the first util event
	// through lastUtil, maintained O(1) per pushUtil;
	// steadyIntegral is the integral's value at SteadyEnd, captured whenever
	// observe sees a non-empty queue; lastEndIntegral is its value at
	// LastEnd. They exist so observers (the snapshot publisher) never pay an
	// O(len(UtilSeries)) walk per observation.
	utilIntegral    float64
	steadyIntegral  float64
	lastEndIntegral float64

	acc         Accounting
	counts      Counts
	haveArrival bool

	// lastSeq is the FIFO key the queue handed out last; keys increase in
	// queue order. track turns on touch, which lists in touched every job
	// whose status, or place in the queue or running set, changed since the
	// previous Changes.
	lastSeq uint64
	track   bool
	touched []*jobItem
}

// New validates the config and returns a fresh engine at virtual time zero.
func New(cfg Config) (*Engine, error) {
	if cfg.Alloc == nil {
		return nil, fmt.Errorf("engine: nil allocator")
	}
	w := cfg.Window
	if w == 0 {
		w = DefaultWindow
	}
	txn, _ := cfg.Alloc.(alloc.TxnAllocator)
	pf, _ := cfg.Alloc.(alloc.PartitionFinder)
	e := &Engine{
		cfg:       cfg,
		window:    w,
		running:   map[*runningJob]struct{}{},
		jobs:      map[int64]*jobItem{},
		done:      map[int64]JobStatus{},
		total:     totalNodes(cfg),
		txnAlloc:  txn,
		elasticPF: pf,
		feasMin:   maxInt,
	}
	if fc, ok := cfg.Alloc.(alloc.FeasibilityClasser); ok {
		e.feasClass = fc.FeasibilityClass
		_, e.feasMono = cfg.Alloc.(alloc.MonotoneFeasibility)
		e.feasMemo = map[feasKey]feasVerdict{}
		e.feasVersion = cfg.Alloc.State().Version()
	}
	return e, nil
}

func totalNodes(cfg Config) int {
	if cfg.TotalNodes > 0 {
		return cfg.TotalNodes
	}
	return cfg.Alloc.Tree().Nodes()
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now returns the engine's virtual time.
func (e *Engine) Now() float64 { return e.now }

// TotalNodes returns the simulated cluster size.
func (e *Engine) TotalNodes() int { return e.total }

// UsedNodes returns the requested-size sum of running jobs.
func (e *Engine) UsedNodes() int { return e.used }

// PendingEvents returns the number of undelivered arrival/completion events.
func (e *Engine) PendingEvents() int { return e.events.Len() }

// NextEventTime returns the timestamp of the next pending event.
func (e *Engine) NextEventTime() (float64, bool) {
	if e.events.Len() == 0 {
		return 0, false
	}
	return e.events.Peek().Time, true
}

// Idle reports whether the engine has no pending events, no queued jobs,
// and no running jobs — i.e. a drained machine.
func (e *Engine) Idle() bool {
	return e.events.Len() == 0 && len(e.queue) == 0 && len(e.running) == 0
}

// Counts returns the lifetime job-outcome tallies.
func (e *Engine) Counts() Counts { return e.counts }

// ActiveJobs returns the number of jobs currently queued or running — the
// size of the working set a Snapshot would copy.
func (e *Engine) ActiveJobs() int { return len(e.queue) + len(e.running) }

// Accounting returns the metric ledger accumulated so far. The slices are
// owned by the engine; callers must not mutate them.
func (e *Engine) Accounting() Accounting { return e.acc }

// Submit registers a job. Arrivals in the past are clamped to the current
// virtual time; the job enters the queue when the clock reaches its arrival
// (Step/AdvanceTo). Job IDs must be unique for the engine's lifetime.
func (e *Engine) Submit(j trace.Job) error {
	if _, dup := e.Status(j.ID); dup {
		return fmt.Errorf("engine: duplicate job id %d", j.ID)
	}
	if j.Arrival < e.now {
		j.Arrival = e.now
	}
	it := &jobItem{j: j, eff: e.effRuntime(j), state: StateQueued}
	e.jobs[j.ID] = it
	if !e.haveArrival || j.Arrival < e.acc.FirstArrival {
		e.acc.FirstArrival = j.Arrival
		e.haveArrival = true
	}
	e.counts.Submitted++
	if e.cfg.Elastic && j.Deadline > 0 {
		// Deadline admission (DESIGN.md §17): a verdict is advisory unless
		// it is VerdictRejected, in which case the job is refused outright —
		// it can provably never meet its deadline (or never fit at all).
		e.admit(it)
		if it.verdict == VerdictRejected {
			e.reject(it, e.now)
			return nil
		}
	}
	e.events.Push(sim.Event{Time: j.Arrival, Prio: sim.PrioArrival, Payload: it})
	return nil
}

// Status returns the current view of a submitted job, active or finished.
// (Job IDs are unique for the engine's lifetime: a finished ID still counts
// as a duplicate.)
func (e *Engine) Status(id int64) (JobStatus, bool) {
	if it, ok := e.jobs[id]; ok {
		return it.status(), true
	}
	st, ok := e.done[id]
	return st, ok
}

// retire moves a job that just reached a terminal state out of the active
// set: its final status goes to the ledger and the engine drops every
// reference to the jobItem. (A cancelled job's pending arrival event may
// still hold the item; Step skips it by its state.)
func (e *Engine) retire(it *jobItem) {
	e.touch(it)
	it.rj = nil
	delete(e.jobs, it.j.ID)
	e.done[it.j.ID] = it.status()
}

// reject refuses a job at time now.
func (e *Engine) reject(it *jobItem, now float64) {
	it.state = StateRejected
	it.end = now
	e.counts.Rejected++
	if e.cfg.History {
		e.acc.Rejected = append(e.acc.Rejected, it.j)
	}
	e.retire(it)
}

// Cancel withdraws a job. A queued job is removed from the queue; a running
// job releases its nodes and links immediately (freed resources are offered
// to the queue at the current time). Completed, rejected, and already-
// cancelled jobs cannot be cancelled.
func (e *Engine) Cancel(id int64) (JobStatus, error) {
	it, ok := e.jobs[id]
	if !ok {
		if st, done := e.done[id]; done {
			return st, fmt.Errorf("engine: job %d already %s", id, st.State)
		}
		return JobStatus{}, fmt.Errorf("engine: unknown job %d", id)
	}
	switch it.state {
	case StateQueued:
		// A job whose arrival is still pending is in no queue; its arrival
		// event is skipped by the state set here.
		for i, q := range e.queue {
			if q == it {
				e.removeQueued(i)
				break
			}
		}
		it.state = StateCancelled
		it.end = e.now
		e.counts.Cancelled++
		e.retire(it)
		// Removing the head can unblock its successors.
		e.schedule(e.now)
		e.observe(e.now)
	case StateRunning:
		e.releaseEpoch++
		e.cancelEpoch++
		e.cfg.Alloc.Release(it.rj.pl)
		e.detachRunning(it.rj)
		e.pushUtil(e.now)
		it.state = StateCancelled
		it.end = e.now
		e.counts.Cancelled++
		e.retire(it)
		e.workEnded(e.now)
		e.schedule(e.now)
		e.observe(e.now)
	}
	return it.status(), nil
}

// FailReport summarizes one failure injection: how many running jobs the
// failure hit and what became of them under the engine's FailurePolicy.
// Shrunk counts jobs re-placed on the surviving fabric under FailShrink
// (at a smaller size or migrated at full size); jobs the shrink search could
// not re-place fall back to Requeued.
type FailReport struct {
	Affected int
	Requeued int
	Killed   int
	Shrunk   int
}

// Fail injects a resource failure at the current virtual time. Running jobs
// whose allocation intersects the failure are released and, per
// Config.OnFailure, requeued (back of the queue, full rerun) or killed.
// The failure is then applied to the live state through the sentinel-owner
// take path (topology/failure.go), so no later placement can touch the
// failed resources; the scheduler immediately reconsiders the queue on
// whatever capacity survives. The state owns the set of active specs: a spec
// may overlap active ones in any way, only repeating one is rejected.
func (e *Engine) Fail(f topology.Failure) (FailReport, error) {
	tree, st := e.cfg.Alloc.Tree(), e.cfg.Alloc.State()
	if err := f.Validate(tree); err != nil {
		return FailReport{}, err
	}
	if st.FailureActive(f) {
		return FailReport{}, fmt.Errorf("engine: %v already failed", f)
	}

	// Release every running job the failure touches, deterministically by
	// job ID (e.running is a map).
	var affected []*runningJob
	for rj := range e.running {
		if f.Intersects(tree, rj.pl) {
			affected = append(affected, rj)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i].it.j.ID < affected[j].it.j.ID })
	now := e.now
	var rep FailReport
	rep.Affected = len(affected)
	var shrinkable []shrinkCand
	for _, rj := range affected {
		it := rj.it
		e.cfg.Alloc.Release(rj.pl)
		e.detachRunning(rj)
		switch {
		case e.cfg.OnFailure == FailKill:
			it.state = StateKilled
			it.end = now
			e.counts.Killed++
			rep.Killed++
			if e.cfg.History {
				e.acc.Killed = append(e.acc.Killed, it.j)
			}
			e.retire(it)
		case e.cfg.OnFailure == FailShrink && e.cfg.Elastic &&
			it.j.MinSize() < it.j.Size && rj.end-now > timeEps:
			// Deferred: the replacement search must run on the post-Apply
			// state so it cannot touch the failed resources. The job stays
			// StateRunning through the resolution below.
			shrinkable = append(shrinkable, shrinkCand{it: it, remain: rj.end - now})
		default:
			// FailRequeue — and FailShrink for rigid jobs (or with Elastic
			// off): whole-job requeue, full rerun.
			e.requeue(it)
			e.counts.Requeued++
			rep.Requeued++
		}
	}
	if len(affected) > 0 {
		e.pushUtil(now)
		e.workEnded(now)
	}

	// With every intersecting holder released the failure's resources are
	// free, so the sentinel take cannot be blocked by a job; it is refused
	// only for a spec that takes nothing down in this engine's cell.
	if err := f.Apply(st); err != nil {
		if len(affected) > 0 {
			// Released jobs for a failure that then refused to apply —
			// Intersects and Apply disagree (TestComponentsAgreeWithCovers
			// pins that they do not), which is a bug, not an input error.
			panic(fmt.Sprintf("engine: failure %v released %d jobs but did not apply: %v", f, len(affected), err))
		}
		return FailReport{}, err
	}

	// Re-place shrinkable jobs on the surviving fabric, in job-ID order
	// (affected is sorted). Jobs the shrink search cannot re-place fall
	// back to the whole-job requeue the default branch above applies.
	for _, c := range shrinkable {
		if e.shrinkOne(c.it, c.remain, now) {
			rep.Shrunk++
		} else {
			e.requeue(c.it)
			e.counts.Requeued++
			rep.Requeued++
		}
	}

	// The failure both released resources (affected jobs) and consumed
	// others (the failed set): every cached verdict is suspect.
	e.releaseEpoch++
	e.cancelEpoch++
	e.schedule(now)
	e.observe(now)
	return rep, nil
}

// Recover makes an active failure spec (injected by Fail and not yet
// recovered) inactive and immediately offers the recovered capacity to the
// queue. Overlapping specs are recovered in any order: a component returns to
// service when the last active spec covering it is recovered
// (topology/failure.go).
func (e *Engine) Recover(f topology.Failure) error {
	st := e.cfg.Alloc.State()
	if !st.FailureActive(f) {
		return fmt.Errorf("engine: %v is not an active failure", f)
	}
	if err := f.Revert(st); err != nil {
		return err
	}
	e.releaseEpoch++
	e.cancelEpoch++
	e.schedule(e.now)
	e.observe(e.now)
	return nil
}

// Degraded reports whether any injected failure is still active.
func (e *Engine) Degraded() bool { return e.cfg.Alloc.State().Degraded() }

// FailedResources returns the current counts of failed nodes, links, and
// switch-level failure specs.
func (e *Engine) FailedResources() (nodes, links, switches int) {
	st := e.cfg.Alloc.State()
	return st.FailedNodes(), st.FailedLinks(), st.FailedSwitches()
}

// Step advances the clock to the next pending event timestamp, delivers
// every event at that instant (completions before arrivals), and runs the
// scheduler. It returns the new time and false when no events remain.
func (e *Engine) Step() (float64, bool) {
	if e.events.Len() == 0 {
		return e.now, false
	}
	now := e.events.Peek().Time
	for e.events.Len() > 0 && e.events.Peek().Time == now {
		ev := e.events.Pop()
		switch p := ev.Payload.(type) {
		case *runningJob:
			if p.cancelled {
				continue
			}
			e.complete(p, now)
		case *jobItem:
			if p.state == StateCancelled {
				continue
			}
			e.enqueue(p)
		}
	}
	e.now = now
	e.schedule(now)
	e.observe(now)
	return now, true
}

// AdvanceTo steps through every event with timestamp at most t and then
// moves the clock to t. It returns the number of steps taken.
func (e *Engine) AdvanceTo(t float64) int {
	steps := 0
	for e.events.Len() > 0 && e.events.Peek().Time <= t {
		e.Step()
		steps++
	}
	if t > e.now {
		e.now = t
	}
	return steps
}

// Snapshot returns a consistent copy of the engine's observable state.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{Summary: e.Summary()}
	s.Queue = make([]JobStatus, 0, len(e.queue))
	for _, it := range e.queue {
		s.Queue = append(s.Queue, it.status())
	}
	s.Running = make([]JobStatus, 0, len(e.running))
	for rj := range e.running {
		s.Running = append(s.Running, rj.it.status())
	}
	sort.Slice(s.Running, func(i, j int) bool {
		if s.Running[i].Start != s.Running[j].Start {
			return s.Running[i].Start < s.Running[j].Start
		}
		return s.Running[i].Job.ID < s.Running[j].Job.ID
	})
	return s
}

// Summary returns the engine's fixed-size observable state.
func (e *Engine) Summary() Summary {
	s := Summary{
		Now:           e.now,
		TotalNodes:    e.total,
		UsedNodes:     e.used,
		FreeNodes:     e.cfg.Alloc.FreeNodes(),
		QueueDepth:    len(e.queue),
		RunningJobs:   len(e.running),
		PendingEvents: e.events.Len(),
		Counts:        e.counts,
	}
	s.FailedNodes, s.FailedLinks, s.FailedSwitches = e.FailedResources()
	return s
}

// Change is one job whose status, or place in the queue or running set, an
// engine call changed since the previous Changes.
type Change struct {
	Status JobStatus
	// Queued is the job's FIFO key while it waits in the queue, 0 when it
	// does not; Shown is the key the previous Changes reported for it. Keys
	// increase in queue order, so they sort the queue.
	Queued, Shown uint64
	// Placed marks a job started by StartPlaced, whose ID other engines
	// may also run.
	Placed bool
}

// TrackChanges turns on change tracking for Changes. Every job already
// queued or running counts as changed. The snapshot publisher turns it on;
// an engine nobody observes this way (the batch simulator) never pays for
// it.
func (e *Engine) TrackChanges() {
	e.track = true
	for _, it := range e.queue {
		e.touch(it)
	}
	for rj := range e.running {
		e.touch(rj.it)
	}
}

// Changes calls fn once for every job changed since the previous call (or
// since TrackChanges), and starts a new round. A job that left the queue and
// the running set since is reported with Queued 0 and a state other than
// running.
func (e *Engine) Changes(fn func(Change)) {
	for i, it := range e.touched {
		fn(Change{Status: it.status(), Queued: it.seq, Shown: it.shown, Placed: it.placed})
		it.shown, it.touched = it.seq, false
		e.touched[i] = nil
	}
	e.touched = e.touched[:0]
}

// touch records that a job's status, or its place in the queue or running
// set, changes. Every such change goes through here: enqueue, start,
// commitResize and retire, which between them cover arrival, requeue,
// backfill, preemption, shrink, grow and every terminal state.
func (e *Engine) touch(it *jobItem) {
	if e.track && !it.touched {
		it.touched = true
		e.touched = append(e.touched, it)
	}
}

// enqueue appends a job to the queue under the next FIFO key.
func (e *Engine) enqueue(it *jobItem) {
	e.lastSeq++
	it.seq = e.lastSeq
	e.queue = append(e.queue, it)
	e.touch(it)
}

// effRuntime applies the scenario to a job's runtime.
func (e *Engine) effRuntime(j trace.Job) float64 {
	if !e.cfg.ApplySpeedups || e.cfg.Scenario == nil {
		return j.Runtime
	}
	return scenario.IsolatedRuntime(e.cfg.Scenario, j)
}

// observe records the per-event utilization sample and steady-state cutoff.
func (e *Engine) observe(now float64) {
	if e.cfg.History {
		e.acc.InstSamples = append(e.acc.InstSamples, float64(e.used)/float64(e.total))
	}
	if len(e.queue) > 0 {
		e.acc.SteadyEnd = now
		e.steadyIntegral = e.utilIntegralTo(now)
	}
}

// complete finishes a running job.
func (e *Engine) complete(rj *runningJob, now float64) {
	e.releaseEpoch++
	e.cfg.Alloc.Release(rj.pl)
	delete(e.running, rj)
	e.used -= rj.it.j.Size
	e.pushUtil(now)
	rj.it.state = StateCompleted
	e.counts.Completed++
	if e.cfg.History {
		e.acc.Records = append(e.acc.Records, Record{
			Job: rj.it.j, Runtime: rj.it.eff, Start: rj.start, End: rj.end,
		})
	}
	e.retire(rj.it)
	e.workEnded(now)
}

// workEnded extends the accounting window to now: a run segment just ended
// there — by completion, cancellation or a failure. Without it the window
// would stop at the previous completion and overstate utilization.
func (e *Engine) workEnded(now float64) {
	if now > e.acc.LastEnd {
		e.acc.LastEnd = now
		e.lastEndIntegral = e.utilIntegralTo(now)
	}
}

// requeue sends a displaced job to the back of the queue. Its effective
// runtime is the caller's to set: untouched for a full rerun (failures), cut
// to the remaining time for a checkpointed victim (finishPreempt).
func (e *Engine) requeue(it *jobItem) {
	it.state = StateQueued
	it.start, it.end = 0, 0
	e.enqueue(it)
}

// start launches a job whose placement has already been charged.
func (e *Engine) start(it *jobItem, pl *topology.Placement, now float64) *runningJob {
	rj := &runningJob{it: it, pl: pl, start: now, end: now + it.eff}
	e.running[rj] = struct{}{}
	e.used += it.j.Size
	e.pushUtil(now)
	it.state = StateRunning
	it.start = rj.start
	it.end = rj.end
	it.rj = rj
	e.touch(it)
	e.counts.Started++
	e.events.Push(sim.Event{Time: rj.end, Prio: sim.PrioCompletion, Payload: rj})
	return rj
}

// feasSync discards cached verdicts when the live state's version moved
// since they were stamped: a take or a return the scheduler kept — a start, a
// completion, a cancellation, a failure, a resize — could have changed any
// answer. A probe the scheduler charged and released again also moves the
// version, but not the state; feasUndone re-stamps the memo over it, so it
// never shows here. Invalidations are only counted when something was
// actually discarded.
func (e *Engine) feasSync() {
	v := e.cfg.Alloc.State().Version()
	if v == e.feasVersion {
		return
	}
	e.feasVersion = v
	if e.feasMin != maxInt || len(e.feasMemo) > 0 {
		e.feasMin = maxInt
		clear(e.feasMemo)
		e.acc.FeasCacheInvalidations++
	}
}

// feasUndone re-stamps the memo after the scheduler released a placement
// that place charged moments ago. place searched at the version the memo was
// synced to, nothing was recorded while the placement was held, and
// take-then-return is an exact inverse on topology.State (DESIGN.md §10: the
// same mutators walk the availability indices back), so the live state is bit
// for bit the one every cached verdict is about — only its version counter
// moved. Its one caller is scheduleQueue's backfill loop, where it undoes a
// probe that would displace the head.
func (e *Engine) feasUndone() {
	if e.feasClass != nil {
		e.feasVersion = e.cfg.Alloc.State().Version()
	}
}

// feasLookup returns the memo's verdict for placing the job at the given
// size on the live state right now: one sync and at most one map lookup.
// feasUnknown when the cache is off or has nothing.
func (e *Engine) feasLookup(size int, id int64) feasVerdict {
	if e.feasClass == nil {
		return feasUnknown
	}
	e.feasSync()
	if size >= e.feasMin {
		return feasNoPlacement
	}
	return e.feasMemo[feasKey{size: size, class: e.feasClass(topology.JobID(id))}]
}

// feasRecord memoizes a refusal just worked out on the live state at the
// synced version: a failed Allocate (which leaves the state — and therefore
// its version — untouched), or a refused displacement check whose probe
// feasUndone has just re-stamped.
func (e *Engine) feasRecord(size int, id int64, v feasVerdict) {
	if e.feasClass == nil {
		return
	}
	if e.feasMono && v == feasNoPlacement {
		if size < e.feasMin {
			e.feasMin = size
		}
		return
	}
	e.feasMemo[feasKey{size: size, class: e.feasClass(topology.JobID(id))}] = v
}

// place tries a live placement of the job at the given size, accounting
// scheduling time. Attempts the feasibility cache can refuse skip the
// allocator search entirely; they still count as AllocCalls (logical
// attempts), keeping the accounting identical with and without the cache.
//
// verify is the elastic legality guard, set by the moves that place a job at
// a size or in a state the ordinary queue scan never produces (shrink, grow,
// preempt): when the allocator exposes its partition search
// (alloc.PartitionFinder), the partition a same-state Allocate would charge
// is found first and independently re-verified with partition.Verify. A
// found-but-illegal partition (a search bug) is refused rather than charged,
// without poisoning the feasibility cache.
//
// long is set by the backfill scan for a candidate that runs past the head's
// shadow time: the caller will release the placement again if it displaces
// the head, so a cached "displaces" verdict refuses the attempt as well.
// Every other caller keeps what it gets and passes false.
func (e *Engine) place(it *jobItem, size int, verify, long bool) (*topology.Placement, bool) {
	e.acc.AllocCalls++
	if v := e.feasLookup(size, it.j.ID); v == feasNoPlacement || (long && v == feasDisplaces) {
		e.acc.FeasCacheHits++
		return nil, false
	}
	var t0 time.Time
	if e.cfg.MeasureAllocTime {
		t0 = time.Now()
	}
	id := topology.JobID(it.j.ID)
	var pl *topology.Placement
	ok, illegal := true, false
	if verify && e.elasticPF != nil {
		p, found := e.elasticPF.FindJobPartition(id, size)
		if !found {
			ok = false
		} else if err := p.Verify(e.cfg.Alloc.Tree()); err != nil {
			ok, illegal = false, true
		}
	}
	if ok {
		pl, ok = e.cfg.Alloc.Allocate(id, size)
	}
	if e.cfg.MeasureAllocTime {
		e.acc.AllocSeconds += time.Since(t0).Seconds()
	}
	if e.feasClass != nil {
		e.acc.FeasCacheMisses++
		if !ok && !illegal {
			e.feasRecord(size, it.j.ID, feasNoPlacement)
		}
	}
	return pl, ok
}

// removeQueued deletes queue[i] by shifting the shorter side over it —
// backfill removes inside the first window+1 entries of a queue that can be
// thousands deep — and nils the vacated end slot so the backing array does
// not pin the removed job (and its eventual placement) until enough later
// removals overwrite it.
func (e *Engine) removeQueued(i int) {
	e.queue[i].seq = 0
	last := len(e.queue) - 1
	if i < last-i {
		copy(e.queue[1:], e.queue[:i])
		e.queue[0] = nil
		e.queue = e.queue[1:]
		return
	}
	copy(e.queue[i:], e.queue[i+1:])
	e.queue[last] = nil
	e.queue = e.queue[:last]
}

// popHead drops queue[0] by reslicing (the FIFO fast path keeps the backing
// array), nilling the vacated slot for the same reason as removeQueued.
func (e *Engine) popHead() {
	e.queue[0].seq = 0
	e.queue[0] = nil
	e.queue = e.queue[1:]
}

// schedule starts queued jobs — FIFO first, then EASY backfill — and, on an
// elastic engine whose queue drained, offers leftover capacity to running
// malleable jobs (growPass).
func (e *Engine) schedule(now float64) {
	e.scheduleQueue(now)
	if e.cfg.Elastic && len(e.queue) == 0 {
		e.growPass(now)
	}
}

// scheduleQueue starts queued jobs: FIFO first, then EASY backfill.
func (e *Engine) scheduleQueue(now float64) {
	for {
		// FIFO: start head jobs while they fit. A head that failed is only
		// retried after a release (allocations in between cannot help it).
		for len(e.queue) > 0 {
			head := e.queue[0]
			if e.headBlocked && head.j.ID == e.headBlockedID && e.releaseEpoch == e.headBlockedEpoch {
				break
			}
			pl, ok := e.place(head, head.j.Size, false, false)
			if !ok && e.cfg.Elastic {
				// A blocked urgent head (positive priority, or a deadline
				// still achievable) may checkpoint-requeue strictly-lower-
				// priority victims to make room.
				pl, ok = e.tryPreempt(head, now)
			}
			if !ok {
				e.headBlocked = true
				e.headBlockedID = head.j.ID
				e.headBlockedEpoch = e.releaseEpoch
				break
			}
			e.start(head, pl, now)
			e.popHead()
		}
		if len(e.queue) == 0 {
			return
		}
		head := e.queue[0]

		// Reservation for the blocked head, cached until the head changes
		// or a running job is cancelled. Natural completions keep the cache
		// valid — the replay already accounted for them — and the cached
		// clone is kept current by mirroring long backfills.
		var shadow float64
		var snap alloc.Allocator
		var ok bool
		if e.resvValid && e.resvID == head.j.ID && e.resvEpoch == e.cancelEpoch {
			shadow, snap, ok = e.resvShadow, e.resvSnap, e.resvOK
		} else {
			// Displacement verdicts are about the reservation this replaces;
			// "no placement" is about the live state alone and stays.
			for k, v := range e.feasMemo {
				if v == feasDisplaces {
					delete(e.feasMemo, k)
				}
			}
			shadow, snap, ok = e.reservation(head)
			e.resvValid = true
			e.resvID, e.resvEpoch = head.j.ID, e.cancelEpoch
			e.resvShadow, e.resvSnap, e.resvOK = shadow, snap, ok
		}
		if !ok {
			if e.Degraded() {
				// The head does not fit even on a drained machine — but the
				// machine is degraded, and recovery may restore enough
				// capacity. Hold the job instead of rejecting it (backfill
				// pauses too: with no shadow time there is no displacement
				// bound). Rejection verdicts resume once the fabric heals.
				return
			}
			// The head cannot run even on a drained machine: reject it and
			// reschedule the rest.
			e.reject(head, now)
			e.popHead()
			continue
		}
		if e.cfg.DisableBackfill {
			return
		}

		// EASY backfill within the lookahead window.
		examined := 0
		i := 1
		for i < len(e.queue) && examined < e.window {
			cand := e.queue[i]
			examined++
			short := now+cand.eff <= shadow+timeEps
			pl, ok := e.place(cand, cand.j.Size, false, !short)
			if !ok {
				i++
				continue
			}
			if short {
				// Finishes before the head's reservation: always safe.
				e.start(cand, pl, now)
				e.removeQueued(i)
				continue
			}
			// Runs past the shadow time: admit only if the head would
			// still fit at the shadow time with this job in place.
			if e.headFitsAtShadow(head, snap, pl) {
				e.start(cand, pl, now)
				e.removeQueued(i)
				continue
			}
			// Refused. Allocate is a pure function of (live state, size,
			// class) and the head probe one of (shadow-time clone, that
			// placement), so every later candidate of this key that runs
			// past the shadow time is refused too, until the live state
			// changes or the reservation is recomputed.
			e.cfg.Alloc.Release(pl)
			e.feasUndone()
			e.feasRecord(cand.j.Size, cand.j.ID, feasDisplaces)
			i++
		}
		return
	}
}

// headFitsAtShadow is the backfill displacement check: would the head still
// fit at the shadow time if the candidate placement pl (already charged on
// the live state) kept running past it? pl is mirrored into the cached
// shadow-time clone (and un-mirrored if the head no longer fits), so each
// check costs O(candidate + head search) — the clone amortizes the
// shadow-state construction across every candidate of the reservation.
func (e *Engine) headFitsAtShadow(head *jobItem, snap alloc.Allocator, pl *topology.Placement) bool {
	snap.Mirror(pl)
	hpl, fits := snap.Allocate(topology.JobID(head.j.ID), head.j.Size)
	if fits {
		snap.Release(hpl)
		return true
	}
	snap.Release(pl)
	return false
}

// reservation computes the head job's shadow time: the earliest completion
// time at which the head fits.
//
// FIFO consumes only the shadow time and the fits-at-all verdict, so its
// pass runs on whatever whatIf hands out and the state is discarded. EASY
// backfill needs two states at once: candidates allocate on the live state
// while the head is probed on the shadow-time state, once per displacement
// check (headFitsAtShadow). A transaction on the live state cannot be both,
// so EASY always replays onto a clone, which is returned (advanced to the
// shadow time, head not placed) and cached with the reservation.
func (e *Engine) reservation(head *jobItem) (float64, alloc.Allocator, bool) {
	if e.cfg.DisableBackfill {
		a, discard := e.whatIf()
		shadow, ok := e.replay(a, head)
		discard()
		return shadow, nil, ok
	}
	snap := e.cfg.Alloc.Clone()
	shadow, ok := e.replay(snap, head)
	if !ok {
		return 0, nil, false
	}
	return shadow, snap, true
}

// whatIf hands out a state for a pass whose mutations are thrown away: the
// live state inside an undo-journal transaction when the allocator supports
// one (O(mutations) to undo, no O(tree) clone), a clone otherwise. discard
// ends the pass. It is the one place the engine chooses between the two
// mechanisms.
func (e *Engine) whatIf() (a alloc.Allocator, discard func()) {
	if e.txnAlloc != nil {
		e.txnAlloc.Begin()
		return e.txnAlloc, e.txnAlloc.Rollback
	}
	return e.cfg.Alloc.Clone(), func() {}
}

// replay is the engine's one counterfactual (EASY backfilling, Section 5.1):
// release the running jobs' placements on a in completion order (ties by job
// ID) and return the first completion time at which the job fits. a is left
// advanced to that time with the job not placed.
//
// replay neither consults nor feeds the feasibility cache. Even on the live
// state inside a transaction a memo could never help: every probe follows a
// release batch, which moves the version, and the rollback's own version
// bumps discard whatever the pass would record.
func (e *Engine) replay(a alloc.Allocator, it *jobItem) (t float64, ok bool) {
	byEnd := e.byEnd[:0]
	for rj := range e.running {
		byEnd = append(byEnd, rj)
	}
	sort.Slice(byEnd, func(i, j int) bool {
		if byEnd[i].end != byEnd[j].end {
			return byEnd[i].end < byEnd[j].end
		}
		return byEnd[i].it.j.ID < byEnd[j].it.j.ID
	})
	size, id := it.j.Size, topology.JobID(it.j.ID)
	for i := 0; !ok && i < len(byEnd); {
		end := byEnd[i].end
		for i < len(byEnd) && byEnd[i].end == end {
			a.Release(byEnd[i].pl)
			i++
		}
		// Cheap necessary condition before the real search.
		if a.FreeNodes() < size {
			continue
		}
		if pl, fits := a.Allocate(id, size); fits {
			a.Release(pl)
			t, ok = end, true
		}
	}
	// Zero the scratch so completed jobs (and their placements) are not
	// pinned until the next replay.
	clear(byEnd)
	e.byEnd = byEnd[:0]
	return t, ok
}

// pushUtil records a used-node step (coalescing same-time updates) and
// settles the just-closed segment into the running utilization integral.
// Same-time overwrites never touch the integral: the segment they mutate has
// zero width until a later point closes it at the final Used value.
func (e *Engine) pushUtil(t float64) {
	if e.haveUtil {
		if e.lastUtil.T == t {
			e.lastUtil.Used = e.used
			if e.cfg.History {
				e.acc.UtilSeries[len(e.acc.UtilSeries)-1].Used = e.used
			}
			return
		}
		e.utilIntegral += float64(e.lastUtil.Used) * (t - e.lastUtil.T)
	}
	e.lastUtil, e.haveUtil = UtilPoint{T: t, Used: e.used}, true
	if e.cfg.History {
		e.acc.UtilSeries = append(e.acc.UtilSeries, e.lastUtil)
	}
}

// utilIntegralTo extends the settled integral from the last util point to t
// (t must not precede it; every caller passes a current-or-later time).
func (e *Engine) utilIntegralTo(t float64) float64 {
	if !e.haveUtil || t <= e.lastUtil.T {
		return e.utilIntegral
	}
	return e.utilIntegral + float64(e.lastUtil.Used)*(t-e.lastUtil.T)
}

// UtilizationTo returns the average system utilization from the first
// arrival to t (the current clock or later), the paper's used-node integral
// normalized by machine size. O(1): it reads the incrementally-maintained
// integral instead of walking UtilSeries, so observers can call it on every
// snapshot publication. It matches metrics.SeriesUtilization over the same
// bounds.
func (e *Engine) UtilizationTo(t float64) float64 {
	if !e.haveArrival || t <= e.acc.FirstArrival || e.total <= 0 {
		return 0
	}
	return e.utilIntegralTo(t) / (float64(e.total) * (t - e.acc.FirstArrival))
}

// SteadyUtilization returns the steady-state average utilization — first
// arrival to the start of the final drain, Section 5's metric — falling back
// to the full span (first arrival to LastEnd) when no queue ever formed.
// O(1), like UtilizationTo.
func (e *Engine) SteadyUtilization() float64 {
	start := e.acc.FirstArrival
	end, integral := e.acc.SteadyEnd, e.steadyIntegral
	if end <= start {
		end, integral = e.acc.LastEnd, e.lastEndIntegral
	}
	if !e.haveArrival || end <= start || e.total <= 0 {
		return 0
	}
	return integral / (float64(e.total) * (end - start))
}

// StateVersion returns the live allocation state's monotone version counter
// (topology.State.Version), which observers use to tag a snapshot with the
// exact fabric state it was taken at.
func (e *Engine) StateVersion() uint64 {
	return e.cfg.Alloc.State().Version()
}
