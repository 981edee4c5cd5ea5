// Package snapshot is the daemon's RCU-style read path: at drain boundaries
// the engine goroutine publishes an immutable View of the scheduler — the
// engine's Summary (clock, occupancy, counts, failed resources), the
// queued and running jobs, the accounting figures, and the allocation-state
// version — with one atomic pointer swap. Read endpoints load the current
// pointer and serve entirely from the View, so reads are wait-free, never
// contend with the writer, and are linearizable at a published snapshot:
// every response describes the exact engine state at some drain boundary,
// identified by Seq and StateVersion.
//
// A publish costs O(changed), not O(active): the engine names the jobs each
// call changed (engine.Changes), and the View keeps its jobs in two
// copy-on-write chunk sets (jobset.go), one by ID for point reads and one by
// FIFO key for the queue. A publish folds the changed jobs into copies of the
// chunks they live in and shares every other chunk with the previous View, so
// a loaded View remains valid forever, whatever the engine does next.
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
	// publish time — the exact fabric state the View describes.
	StateVersion uint64

	// Snap is the engine's fixed-size observable state: clock, occupancy,
	// counts, and failed-resource summary. The jobs themselves are read
	// through Job, WalkQueue, MergeQueue and MergeRunning.
	Snap engine.Summary

	// Jobs is not filled: point reads use Job. It remains for the traced
	// layer replay in benchmark/layers.go, which still indexes it; its
	// lookups find nothing and fall back to the engine.
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

	// active holds the queued and running jobs by ID, queue the queued ones
	// by FIFO key, and placed the running jobs StartPlaced started, by ID
	// (the only IDs another engine's View may show running too; Merge
	// counts each such job once).
	active, queue, placed jobSet
}

// Job returns an active (queued or running) job's status. Terminal jobs are
// not here; the server asks the engine for those.
func (v *View) Job(id int64) (engine.JobStatus, bool) { return v.active.get(id) }

// WalkQueue calls fn for every queued job in FIFO order.
func (v *View) WalkQueue(fn func(engine.JobStatus)) { v.queue.walk(fn) }

// fold applies one engine change to the View's job sets on behalf of
// publish gen.
func (v *View) fold(gen uint64, c engine.Change) {
	id, running := c.Status.Job.ID, c.Status.State == engine.StateRunning
	if c.Shown != 0 && c.Shown != c.Queued {
		v.queue.del(gen, int64(c.Shown))
	}
	if c.Queued != 0 {
		v.queue.put(gen, int64(c.Queued), c.Status)
	}
	if running || c.Queued != 0 {
		v.active.put(gen, id, c.Status)
	} else {
		v.active.del(gen, id)
	}
	if c.Placed {
		if running {
			v.placed.put(gen, id, c.Status)
		} else {
			v.placed.del(gen, id)
		}
	}
}

// Publisher owns the current-view pointer. One goroutine (the engine
// goroutine) calls Publish; any number of goroutines call Load.
type Publisher struct {
	cur atomic.Pointer[View]
	seq uint64
	// gen numbers the Views built, so a chunk knows which publish may still
	// write it.
	gen uint64
	// pods makes Publish include per-pod free summaries (View.Pods).
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

// NewPublisher turns on the engine's change tracking and starts with a
// published View (Seq 0) of the engine's current state, so readers never
// observe nil. An engine has at most one Publisher: it consumes the
// engine's changes.
func NewPublisher(e *engine.Engine) *Publisher {
	p := &Publisher{}
	e.TrackChanges()
	p.cur.Store(p.build(e, &View{}))
	return p
}

// build returns the View after prev: prev's job sets with the engine's
// changes folded in, and the engine's current figures. Engine-goroutine
// only.
func (p *Publisher) build(e *engine.Engine, prev *View) *View {
	p.gen++
	v := &View{
		PublishedAt:  time.Now(),
		StateVersion: e.StateVersion(),
		Snap:         e.Summary(),
		active:       prev.active,
		queue:        prev.queue,
		placed:       prev.placed,
	}
	e.Changes(func(c engine.Change) { v.fold(p.gen, c) })
	if p.pods {
		v.Pods = p.PodSummaries(e)
	}
	v.UtilNow = e.UtilizationTo(v.Snap.Now)
	v.UtilSteady = e.SteadyUtilization()
	acc := e.Accounting()
	v.FeasHits = acc.FeasCacheHits
	v.FeasMisses = acc.FeasCacheMisses
	v.FeasInvalidations = acc.FeasCacheInvalidations
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

// Publish folds the engine's changes since the previous publish into a new
// View and swaps it in as the current one. Only the engine goroutine may
// call it; the swap is the release edge that makes the drain's effects
// visible to readers.
func (p *Publisher) Publish(e *engine.Engine) *View {
	v := p.build(e, p.cur.Load())
	p.seq++
	v.Seq = p.seq
	p.cur.Store(v)
	return v
}

// Load returns the current View: wait-free, safe from any goroutine, never
// nil.
func (p *Publisher) Load() *View { return p.cur.Load() }
