package snapshot

import "repro/internal/engine"

// WithJobs gives v the queue (in FIFO order) and running jobs a publish of
// an engine holding them would, with the depth and running count to match.
// Every running job counts as a cross-shard slice, so Merge sees them all.
func WithJobs(v *View, queue, running []engine.JobStatus) *View {
	v.Snap.QueueDepth, v.Snap.RunningJobs = len(queue), len(running)
	for i, st := range queue {
		v.queue.put(1, int64(i+1), st)
		v.active.put(1, st.Job.ID, st)
	}
	for _, st := range running {
		v.active.put(1, st.Job.ID, st)
		v.placed.put(1, st.Job.ID, st)
	}
	return v
}
