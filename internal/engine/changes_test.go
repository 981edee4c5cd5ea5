package engine

import "testing"

// TestChangesNameEveryTouchedJob pins what Changes reports: turned on
// mid-life, every queued or running job once; after that exactly the jobs a
// call moved, once each, with the FIFO key each holds now and held at the
// previous round. Keys rise in queue order; a pending arrival is in neither
// the queue nor the running set and is not reported until it arrives.
func TestChangesNameEveryTouchedJob(t *testing.T) {
	e := newEngine(t, 4) // 16 nodes
	for _, j := range [][2]int{{1, 16}, {2, 8}, {3, 8}} {
		if err := e.Submit(job(int64(j[0]), j[1], 0, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Submit(job(4, 4, 5, 10)); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTo(0)
	changes := func() map[int64]Change {
		t.Helper()
		got := map[int64]Change{}
		e.Changes(func(c Change) {
			if _, dup := got[c.Status.Job.ID]; dup {
				t.Fatalf("job %d reported twice in one round", c.Status.Job.ID)
			}
			got[c.Status.Job.ID] = c
		})
		return got
	}
	if got := changes(); len(got) != 0 {
		t.Fatalf("untracked engine reported %v", got)
	}

	e.TrackChanges()
	c := changes()
	if len(c) != 3 || c[1].Status.State != StateRunning || c[1].Queued != 0 ||
		c[2].Queued == 0 || c[3].Queued <= c[2].Queued || c[2].Shown != 0 {
		t.Fatalf("first round %+v: want running 1 and queued 2, 3 in that order", c)
	}
	k2, k3 := c[2].Queued, c[3].Queued
	if got := changes(); len(got) != 0 {
		t.Fatalf("a round with no call reported %v", got)
	}

	// Job 1 completes at 10, jobs 2 and 3 start; job 4, arrived at 5, waits.
	e.AdvanceTo(10)
	c = changes()
	if len(c) != 4 || c[1].Status.State != StateCompleted ||
		c[2].Queued != 0 || c[2].Shown != k2 || c[2].Status.State != StateRunning ||
		c[3].Queued != 0 || c[3].Shown != k3 || c[4].Queued <= k3 || c[4].Shown != 0 {
		t.Fatalf("round at t=10: %+v", c)
	}
	k4 := c[4].Queued
	if _, err := e.Cancel(4); err != nil {
		t.Fatal(err)
	}
	if c = changes(); len(c) != 1 || c[4].Status.State != StateCancelled || c[4].Queued != 0 || c[4].Shown != k4 {
		t.Fatalf("cancel round: %+v", c)
	}
}
