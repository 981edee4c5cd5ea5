// Package snapshot is the daemon's RCU-style read path: at drain boundaries
// the engine goroutine captures an immutable View of the scheduler — queue,
// running set, occupancy, accounting figures, fabric failure summary, and
// the allocation-state version — and publishes it with one atomic pointer
// swap. Read endpoints load the current pointer and serve entirely from the
// View, so reads are wait-free, never contend with the writer, and are
// linearizable at a published snapshot: every response describes the exact
// engine state at some drain boundary, identified by Seq and StateVersion.
// (Capture is O(active jobs), so under deep backlogs the server publishes on
// a bounded cadence rather than after literally every drain; see
// internal/server.)
//
// The View holds no references into live engine state (engine.Snapshot
// copies its slices; everything else here is scalar), so a loaded View
// remains valid forever regardless of what the engine does next.
package snapshot

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/topology"
)

// View is one immutable observation of the engine. Fields are never
// mutated after Publish; readers may retain a View indefinitely.
type View struct {
	// Seq numbers publications from 1; it increases by exactly one per
	// publish, so readers can detect staleness and order observations.
	Seq uint64
	// PublishedAt is the wall-clock publication time (observability
	// metadata; the engine's own clock is Snap.Now).
	PublishedAt time.Time
	// StateVersion is the allocation state's monotone version counter at
	// capture time — the exact fabric state the View describes.
	StateVersion uint64

	// Snap is the engine's consistent observable state: queue (FIFO),
	// running set, occupancy, counts, and failed-resource summary.
	Snap engine.Snapshot

	// Jobs indexes the active (queued or running) jobs by ID for point
	// reads. Terminal jobs are not here; the server falls back to the
	// engine for those. Per-lane only: Merge leaves it nil, since a point
	// read goes to the owning lane's own View.
	Jobs map[int64]engine.JobStatus

	// Pods holds the per-pod free-capacity summaries (cell-range pods only)
	// the cross-shard coordinator's candidate search reads, exact as of
	// StateVersion. Nil unless the publisher opted in with
	// CapturePodSummaries — the lanes of a server with a coordinator do, a
	// one-lane server doesn't pay for what it can't use.
	Pods []topology.PodSummary

	// UtilNow is the average utilization from first arrival to Snap.Now;
	// UtilSteady is the steady-state figure (final drain excluded).
	UtilNow, UtilSteady float64

	// Negative-feasibility cache counters (engine.Accounting).
	FeasHits, FeasMisses, FeasInvalidations int
}

// Publisher owns the current-view pointer. One goroutine (the engine
// goroutine) calls Publish; any number of goroutines call Load.
type Publisher struct {
	cur atomic.Pointer[View]
	seq uint64
	// pods makes capture include per-pod free summaries (View.Pods).
	pods bool
	// What PodSummaries derived last: the state, the summaries of its cell's
	// pods, and for each 1 + the PodVersion it was derived at (0: never).
	podSt   *topology.State
	podSums []topology.PodSummary
	podSeen []uint64
}

// CapturePodSummaries makes every subsequent Publish include View.Pods.
// Call it once, before the engine goroutine starts publishing, and Publish
// right after it: the Seq-0 View that NewPublisher built predates the call
// and carries no summaries. The sharded server does both between lane
// construction and loop start, so none of its readers ever loads a View
// without them.
func (p *Publisher) CapturePodSummaries() { p.pods = true }

// NewPublisher starts with an empty published View (Seq 0) built from the
// engine's initial state, so readers never observe nil.
func NewPublisher(e *engine.Engine) *Publisher {
	p := &Publisher{}
	v := p.capture(e)
	p.cur.Store(v)
	return p
}

// capture builds a View from the engine. Engine-goroutine only.
func (p *Publisher) capture(e *engine.Engine) *View {
	v := &View{
		PublishedAt:  time.Now(),
		StateVersion: e.StateVersion(),
		Snap:         e.Snapshot(),
	}
	if p.pods {
		v.Pods = p.PodSummaries(e)
	}
	v.UtilNow = e.UtilizationTo(v.Snap.Now)
	v.UtilSteady = e.SteadyUtilization()
	acc := e.Accounting()
	v.FeasHits = acc.FeasCacheHits
	v.FeasMisses = acc.FeasCacheMisses
	v.FeasInvalidations = acc.FeasCacheInvalidations
	v.Jobs = make(map[int64]engine.JobStatus, len(v.Snap.Queue)+len(v.Snap.Running))
	for _, st := range v.Snap.Queue {
		v.Jobs[st.Job.ID] = st
	}
	for _, st := range v.Snap.Running {
		v.Jobs[st.Job.ID] = st
	}
	return v
}

// PodSummaries returns the engine's per-pod free-capacity summaries
// (cell-range pods only) in a fresh slice: equal to State.PodSummaries, but
// re-deriving only the pods whose PodVersion moved since the previous call.
// An unchanged pod's summary is the one returned before, SpineFree slice
// included, which is safe because a summary is never mutated. Paired with
// Engine.StateVersion, the result lets an observer reason about sub-pod
// placement feasibility without holding the engine. Only the goroutine that
// owns the engine may call it: the engine goroutine, or a coordinator
// holding the lane parked.
func (p *Publisher) PodSummaries(e *engine.Engine) []topology.PodSummary {
	return p.podSummaries(e.Config().Alloc.State())
}

func (p *Publisher) podSummaries(st *topology.State) []topology.PodSummary {
	lo, hi := st.CellRange()
	if p.podSt != st {
		p.podSt, p.podSums, p.podSeen = st, make([]topology.PodSummary, hi-lo), make([]uint64, hi-lo)
	}
	for i := range p.podSums {
		if v := st.PodVersion(lo+i) + 1; p.podSeen[i] != v {
			p.podSums[i], p.podSeen[i] = st.SummarizePod(lo+i), v
		}
	}
	return slices.Clone(p.podSums)
}

// Publish captures the engine's state and swaps it in as the current View.
// Only the engine goroutine may call it; the swap is the release edge that
// makes the drain's effects visible to readers.
func (p *Publisher) Publish(e *engine.Engine) *View {
	v := p.capture(e)
	p.seq++
	v.Seq = p.seq
	p.cur.Store(v)
	return v
}

// Load returns the current View: wait-free, safe from any goroutine, never
// nil.
func (p *Publisher) Load() *View { return p.cur.Load() }
