package snapshot_test

// Unit coverage for the sharded daemon's View merging: counter/occupancy
// sums, node-weighted utilization, conservative staleness, cross-shard slice
// coalescing in the running list and in point lookups (MergeStatuses), and
// the pod-summary capture opt-in.

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

func TestMergeSingleViewIsIdentity(t *testing.T) {
	v := &snapshot.View{Seq: 7}
	if got := snapshot.Merge([]*snapshot.View{v}); got != v {
		t.Fatalf("single-view merge returned a new View %p, want the input %p", got, v)
	}
}

func TestMergeSumsCountersAndCoalescesSlices(t *testing.T) {
	t0 := time.Unix(100, 0)
	t1 := t0.Add(time.Second)
	running := func(id int64, size int, start, end float64) engine.JobStatus {
		return engine.JobStatus{
			Job:   trace.Job{ID: id, Size: size, Arrival: start},
			State: engine.StateRunning, Start: start, End: end,
		}
	}
	queued := func(id int64, arrival float64) engine.JobStatus {
		return engine.JobStatus{Job: trace.Job{ID: id, Size: 2, Arrival: arrival}, State: engine.StateQueued}
	}
	v1 := &snapshot.View{
		Seq: 2, StateVersion: 5, PublishedAt: t1,
		UtilNow: 0.5, UtilSteady: 0.25,
		FeasHits: 3, FeasMisses: 1, FeasInvalidations: 2,
	}
	v1.Snap = engine.Snapshot{
		Now: 10, TotalNodes: 64, UsedNodes: 32, FreeNodes: 32, PendingEvents: 1,
		Queue:   []engine.JobStatus{queued(9, 4)},
		Running: []engine.JobStatus{running(7, 4, 2, 10), running(5, 8, 1, 6)},
		Counts: engine.Counts{
			Submitted: 10, Started: 8, Completed: 5, Rejected: 1, Cancelled: 1,
			Requeued: 2, Killed: 1, Shrunk: 3, Grown: 2, Preempted: 1,
		},
		FailedNodes: 2, FailedLinks: 1, FailedSwitches: 1,
	}
	v2 := &snapshot.View{
		Seq: 3, StateVersion: 4, PublishedAt: t0, // older publication must win
		UtilNow: 1.0, UtilSteady: 0.75,
	}
	v2.Snap = engine.Snapshot{
		Now: 12, TotalNodes: 64, UsedNodes: 64, FreeNodes: 0,
		Queue: []engine.JobStatus{queued(8, 3)},
		// Job 7's other slice: sizes sum, earliest start / latest end win.
		Running: []engine.JobStatus{running(7, 4, 3, 12)},
		Counts:  engine.Counts{Submitted: 4, Started: 4, Completed: 2},
	}

	m := snapshot.Merge([]*snapshot.View{v1, v2})
	if m.Seq != 5 || m.StateVersion != 9 {
		t.Fatalf("Seq/StateVersion = %d/%d, want 5/9", m.Seq, m.StateVersion)
	}
	if !m.PublishedAt.Equal(t0) {
		t.Fatalf("PublishedAt %v, want the older %v", m.PublishedAt, t0)
	}
	if m.Snap.Now != 12 {
		t.Fatalf("Now %v, want the furthest shard clock 12", m.Snap.Now)
	}
	if m.Snap.TotalNodes != 128 || m.Snap.UsedNodes != 96 || m.Snap.FreeNodes != 32 || m.Snap.PendingEvents != 1 {
		t.Fatalf("occupancy %+v", m.Snap)
	}
	wantCounts := engine.Counts{
		Submitted: 14, Started: 12, Completed: 7, Rejected: 1, Cancelled: 1,
		Requeued: 2, Killed: 1, Shrunk: 3, Grown: 2, Preempted: 1,
	}
	if m.Snap.Counts != wantCounts {
		t.Fatalf("counts %+v, want %+v", m.Snap.Counts, wantCounts)
	}
	if m.Snap.FailedNodes != 2 || m.Snap.FailedLinks != 1 || m.Snap.FailedSwitches != 1 {
		t.Fatalf("failure gauges %+v", m.Snap)
	}
	if m.FeasHits != 3 || m.FeasMisses != 1 || m.FeasInvalidations != 2 {
		t.Fatalf("feasibility counters %+v", m)
	}
	// Equal node weights: plain averages.
	if m.UtilNow != 0.75 || m.UtilSteady != 0.5 {
		t.Fatalf("utilization %v/%v, want 0.75/0.5", m.UtilNow, m.UtilSteady)
	}

	// Queue sorted by (Arrival, ID) across shards.
	if m.Snap.QueueDepth != 2 || m.Snap.Queue[0].Job.ID != 8 || m.Snap.Queue[1].Job.ID != 9 {
		t.Fatalf("merged queue %+v", m.Snap.Queue)
	}
	// Running: job 7's two slices coalesced (4+4 nodes, start 2, end 12),
	// sorted by (Start, ID).
	if m.Snap.RunningJobs != 2 {
		t.Fatalf("running jobs %d, want 2", m.Snap.RunningJobs)
	}
	if j5 := m.Snap.Running[0]; j5.Job.ID != 5 || j5.Job.Size != 8 {
		t.Fatalf("running[0] %+v, want job 5", j5)
	}
	j7 := m.Snap.Running[1]
	if j7.Job.ID != 7 || j7.Job.Size != 8 || j7.Start != 2 || j7.End != 12 {
		t.Fatalf("coalesced slice %+v, want size 8 start 2 end 12", j7)
	}
	// The coalesced job 7 and the queued job 9 are read from the lists above;
	// the merged View builds no Jobs index (point reads consult the owning
	// lane's own View).
	if m.Jobs != nil {
		t.Fatalf("merged View built a Jobs index of %d entries nobody reads", len(m.Jobs))
	}
}

func TestMergeStatusesPicksLeastTerminalState(t *testing.T) {
	slice := func(size int, st engine.State, start, end float64) engine.JobStatus {
		return engine.JobStatus{Job: trace.Job{ID: 42, Size: size, Arrival: start}, State: st, Start: start, End: end}
	}
	// One slice already completed, one still running: the job is running,
	// sizes sum, earliest start and latest end win.
	m := snapshot.MergeStatuses([]engine.JobStatus{
		slice(4, engine.StateCompleted, 1, 9),
		slice(4, engine.StateRunning, 2, 11),
	})
	if m.State != engine.StateRunning || m.Job.Size != 8 || m.Start != 1 || m.End != 11 {
		t.Fatalf("merged status %+v, want running size 8 start 1 end 11", m)
	}
	// Queued beats terminal; a lone terminal state survives.
	m = snapshot.MergeStatuses([]engine.JobStatus{
		slice(4, engine.StateCancelled, 0, 0),
		slice(4, engine.StateQueued, 0, 0),
	})
	if m.State != engine.StateQueued {
		t.Fatalf("state %v, want queued", m.State)
	}
	m = snapshot.MergeStatuses([]engine.JobStatus{slice(4, engine.StateCompleted, 1, 2)})
	if m.State != engine.StateCompleted || m.Job.Size != 4 {
		t.Fatalf("single slice %+v", m)
	}
}

func TestCapturePodSummariesOptIn(t *testing.T) {
	e := newEngine(t)
	p := snapshot.NewPublisher(e)
	if v := p.Load(); v.Pods != nil {
		t.Fatalf("initial view carries pod summaries: %+v", v.Pods)
	}
	if v := p.Publish(e); v.Pods != nil {
		t.Fatalf("publish before opt-in carries pod summaries: %+v", v.Pods)
	}
	p.CapturePodSummaries()
	v := p.Publish(e)
	if len(v.Pods) == 0 {
		t.Fatal("opted-in publish has no pod summaries")
	}
	// An idle radix-4 machine: every pod reports both leaves fully free.
	for _, ps := range v.Pods {
		if ps.FreeLeaves != 2 {
			t.Fatalf("idle machine: pod %d reports %d free leaves, want 2", ps.Pod, ps.FreeLeaves)
		}
	}
}
