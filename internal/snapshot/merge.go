package snapshot

// Merging per-shard Views into one cluster-wide View for the sharded
// daemon's read endpoints. Each lane publishes independently, so a merged
// View is a cut across asynchronously-published snapshots: internally
// consistent per shard, boundedly stale across shards. The composite Seq
// (sum of per-shard Seqs) is still monotone — every republish by any lane
// increases it — so readers can order merged observations the same way they
// order single-engine ones.

import (
	"sort"

	"repro/internal/engine"
)

// Merge folds per-shard Views into a cluster-wide View of scalars. With one
// input the View is returned as-is (the single-shard daemon pays nothing).
// Counters, occupancy, and failure gauges are summed; Now is the furthest
// shard clock; PublishedAt is the oldest publication (conservative
// staleness); utilization figures are node-weighted by each shard's
// TotalNodes.
//
// Cross-shard jobs run once per member shard with per-slice sizes, and
// RunningJobs counts each of them once. Per-shard Counts still count each
// slice — a cross-shard job adds one "submitted"/"started" per member shard —
// which the /v1/shards endpoint exposes raw; DESIGN.md §16 discusses the
// tradeoff. The merged View holds no jobs: MergeQueue and MergeRunning list
// them, and point reads consult the owning lane's own View.
func Merge(views []*View) *View {
	if len(views) == 1 {
		return views[0]
	}
	m := &View{}
	var utilNowW, utilSteadyW, nodes float64
	var members map[int64]int // running cross-shard job -> Views showing a slice of it
	for i, v := range views {
		m.Seq += v.Seq
		m.StateVersion += v.StateVersion
		if i == 0 || v.PublishedAt.Before(m.PublishedAt) {
			m.PublishedAt = v.PublishedAt
		}
		if v.Snap.Now > m.Snap.Now {
			m.Snap.Now = v.Snap.Now
		}
		m.Snap.TotalNodes += v.Snap.TotalNodes
		m.Snap.UsedNodes += v.Snap.UsedNodes
		m.Snap.FreeNodes += v.Snap.FreeNodes
		m.Snap.QueueDepth += v.Snap.QueueDepth
		m.Snap.RunningJobs += v.Snap.RunningJobs
		m.Snap.PendingEvents += v.Snap.PendingEvents
		m.Snap.Counts.Submitted += v.Snap.Counts.Submitted
		m.Snap.Counts.Started += v.Snap.Counts.Started
		m.Snap.Counts.Completed += v.Snap.Counts.Completed
		m.Snap.Counts.Rejected += v.Snap.Counts.Rejected
		m.Snap.Counts.Cancelled += v.Snap.Counts.Cancelled
		m.Snap.Counts.Requeued += v.Snap.Counts.Requeued
		m.Snap.Counts.Killed += v.Snap.Counts.Killed
		m.Snap.Counts.Shrunk += v.Snap.Counts.Shrunk
		m.Snap.Counts.Grown += v.Snap.Counts.Grown
		m.Snap.Counts.Preempted += v.Snap.Counts.Preempted
		m.Snap.FailedNodes += v.Snap.FailedNodes
		m.Snap.FailedLinks += v.Snap.FailedLinks
		m.Snap.FailedSwitches += v.Snap.FailedSwitches
		m.FeasHits += v.FeasHits
		m.FeasMisses += v.FeasMisses
		m.FeasInvalidations += v.FeasInvalidations
		w := float64(v.Snap.TotalNodes)
		utilNowW += v.UtilNow * w
		utilSteadyW += v.UtilSteady * w
		nodes += w
		v.placed.walk(func(st engine.JobStatus) {
			if members == nil {
				members = map[int64]int{}
			}
			if members[st.Job.ID]++; members[st.Job.ID] > 1 {
				m.Snap.RunningJobs--
			}
		})
	}
	if nodes > 0 {
		m.UtilNow = utilNowW / nodes
		m.UtilSteady = utilSteadyW / nodes
	}
	return m
}

// MergeQueue calls fn for every queued job of views, plus more (the
// cross-shard coordinator's waiting jobs): one View's in its FIFO order,
// several sorted by (Arrival, ID), ties in input order. A lane's FIFO order is
// not (Arrival, ID) order — a requeued job keeps its arrival — so the lists
// are sorted whole rather than merged.
func MergeQueue(views []*View, more []engine.JobStatus, fn func(engine.JobStatus)) {
	if len(views) == 1 && len(more) == 0 {
		views[0].WalkQueue(fn)
		return
	}
	all := make([]engine.JobStatus, 0, len(more)+queued(views))
	for _, v := range views {
		v.WalkQueue(func(st engine.JobStatus) { all = append(all, st) })
	}
	all = append(all, more...)
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Job.Arrival != b.Job.Arrival {
			return a.Job.Arrival < b.Job.Arrival
		}
		return a.Job.ID < b.Job.ID
	})
	for _, st := range all {
		fn(st)
	}
}

func queued(views []*View) (n int) {
	for _, v := range views {
		n += v.queue.n
	}
	return n
}

// MergeRunning lists the running jobs of views sorted by (Start, ID), with
// the per-shard slices of a cross-shard job coalesced into one entry. It walks
// every active job of every View: built on demand, never by a publish or a
// merge.
func MergeRunning(views []*View) []engine.JobStatus {
	var run []engine.JobStatus
	for _, v := range views {
		v.active.walk(func(st engine.JobStatus) {
			if st.State == engine.StateRunning {
				run = append(run, st)
			}
		})
	}
	return coalesceRunning(run)
}

// coalesceRunning folds the per-shard slices of cross-shard jobs (same ID on
// several shards) into one entry each: sizes sum, the earliest start and
// latest end win. Output is sorted by (Start, ID) like a single engine's
// running list.
func coalesceRunning(run []engine.JobStatus) []engine.JobStatus {
	byID := make(map[int64]int, len(run))
	out := run[:0]
	for _, st := range run {
		if k, ok := byID[st.Job.ID]; ok {
			out[k].Job.Size += st.Job.Size
			if st.Start < out[k].Start {
				out[k].Start = st.Start
			}
			if st.Job.Arrival < out[k].Job.Arrival {
				out[k].Job.Arrival = st.Job.Arrival
			}
			if st.End > out[k].End {
				out[k].End = st.End
			}
			continue
		}
		byID[st.Job.ID] = len(out)
		out = append(out, st)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Job.ID < out[j].Job.ID
	})
	return out
}

// MergeStatuses coalesces per-shard point lookups of one job the way Merge
// coalesces the running list: slice sizes sum; the most advanced lifecycle
// state wins ties the obvious way (any running slice means running, else any
// queued, else the terminal state).
func MergeStatuses(sts []engine.JobStatus) engine.JobStatus {
	m := sts[0]
	for _, st := range sts[1:] {
		m.Job.Size += st.Job.Size
		if st.Start < m.Start {
			m.Start = st.Start
		}
		if st.Job.Arrival < m.Job.Arrival {
			m.Job.Arrival = st.Job.Arrival
		}
		if st.End > m.End {
			m.End = st.End
		}
		if statusRank(st.State) > statusRank(m.State) {
			m.State = st.State
		}
	}
	return m
}

// statusRank orders lifecycle states so that the least-terminal slice
// determines a cross-shard job's reported state: slices complete at the
// same virtual instant, but snapshots of different lanes are taken at
// slightly different times.
func statusRank(s engine.State) int {
	switch s {
	case engine.StateRunning:
		return 3
	case engine.StateQueued:
		return 2
	default:
		return 1
	}
}
