package server

// A lane one turn at a time: no goroutine, no sleep, and a fake nowFunc for
// the engine's clock.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/topology"
	"repro/internal/trace"
)

// turnLane is a one-lane server's lane on a 16-node tree, with no goroutine:
// the test takes its turns.
func turnLane(t *testing.T, virtual bool, now func() float64) *lane {
	t.Helper()
	a := core.NewAllocator(topology.MustNew(4))
	eng, err := engine.New(engine.Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	return newLane(eng, newClock(virtual, now), 8192, 8192)
}

func submitOp(id int64, size int, runtime float64) *ingest.Op {
	return &ingest.Op{Kind: ingest.Submit, Job: trace.Job{ID: id, Size: size, Runtime: runtime}, EnqueuedAt: time.Now()}
}

// drainTurn enqueues ops and takes the one drain turn that applies them.
func drainTurn(t *testing.T, l *lane, ops ...*ingest.Op) {
	t.Helper()
	if _, err := l.batcher.Enqueue(ops...); err != nil {
		t.Fatal(err)
	}
	if got := l.batcher.Collect(nil); len(got) != len(ops) {
		t.Fatalf("collected %d of %d ops", len(got), len(ops))
	}
	l.drain(ops)
}

// published checks that the lane's View shows every op's job as the op
// reported it, and that the View is publication seq.
func published(t *testing.T, l *lane, seq uint64, ops ...*ingest.Op) {
	t.Helper()
	v := l.pub.Load()
	if v.Seq != seq {
		t.Fatalf("snapshot_seq %d, want %d", v.Seq, seq)
	}
	for _, op := range ops {
		if op.Err != nil || !op.Known {
			t.Fatalf("job %d: known %v, err %v", op.Job.ID, op.Known, op.Err)
		}
		if got, ok := v.Job(op.Job.ID); !ok || got.State != op.Status.State {
			t.Fatalf("job %d answered %v but the View shows %v (present %v)", op.Job.ID, op.Status.State, got.State, ok)
		}
	}
}

// TestLaneTurns pins a lane's contract turn by turn on both clocks: (a) a
// wall-clock drain applies its batch after the completions due by now, (b)
// every op's effect is published before its producer is released, (c) an
// idle turn waits until the engine's next event on the wall clock and not at
// all on the virtual one while events are pending, (d) above 4 096 active
// jobs every drain still publishes and an idle turn that delivered nothing
// publishes nothing, and (e) the shutdown turn applies every queued op and
// publishes.
func TestLaneTurns(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		t.Run(fmt.Sprintf("virtual=%v", virtual), func(t *testing.T) {
			clock := &fakeClock{}
			l := turnLane(t, virtual, clock.Now)
			// (b) Two whole-machine jobs: one runs until t=1, one waits.
			first := []*ingest.Op{submitOp(1, 16, 1), submitOp(2, 16, 1)}
			drainTurn(t, l, first...)
			published(t, l, 1, first...)
			if first[0].Status.State != engine.StateRunning || first[1].Status.State != engine.StateQueued {
				t.Fatalf("states %v, %v; want running, queued", first[0].Status.State, first[1].Status.State)
			}

			if virtual {
				// (c) Stepping job 1's completion starts job 2: more is due.
				if d, ok := l.idle(); !ok || d != 0 {
					t.Fatalf("idle with events pending waits %v (%v), want 0", d, ok)
				}
				published(t, l, 1) // one step is not yet worth a publish
				// Stepping job 2's completion leaves nothing: publish, sleep.
				if d, ok := l.idle(); ok {
					t.Fatalf("idle with no event pending waits %v, want forever", d)
				}
				v := l.pub.Load()
				if active := v.Snap.QueueDepth + v.Snap.RunningJobs; v.Seq != 2 || v.Snap.Now != 2 || active != 0 {
					t.Fatalf("going idle published seq %d at t=%g with %d jobs; want seq 2, t=2, none", v.Seq, v.Snap.Now, active)
				}
				for _, op := range first {
					if st, ok := v.Job(op.Job.ID); ok {
						t.Fatalf("finished job %d still in the View: %+v", op.Job.ID, st)
					}
				}
			} else {
				// (c) The next event is job 1's completion, one second away.
				if d, ok := l.idle(); !ok || d != time.Second {
					t.Fatalf("idle waits %v (%v), want 1s (the next event)", d, ok)
				}
				published(t, l, 1, first...) // nothing was due: nothing published
				// (a) At t=5 both jobs ended (at 1 and 2) before job 3 applies.
				clock.Set(5)
				third := submitOp(3, 16, 1)
				drainTurn(t, l, third)
				published(t, l, 2, third)
				if st := third.Status; st.State != engine.StateRunning || st.Start != 5 {
					t.Fatalf("job 3 %v at %g; want running from 5", st.State, st.Start)
				}
				if c := l.pub.Load().Snap.Counts; c.Completed != 2 {
					t.Fatalf("completed %d before job 3, want 2", c.Completed)
				}
				if d, ok := l.idle(); !ok || d != time.Second {
					t.Fatalf("idle waits %v (%v), want 1s (job 3 ends at 6)", d, ok)
				}
			}

			// (d) A fresh lane with node 15 failed: no whole-machine job can
			// start, so nothing is ever due, and every job stays active.
			l = turnLane(t, virtual, clock.Now)
			if _, err := l.eng.Fail(topology.NodeFailure(15)); err != nil {
				t.Fatal(err)
			}
			backlog := make([]*ingest.Op, 4096+100)
			for i := range backlog {
				backlog[i] = submitOp(int64(100+i), 16, 1)
			}
			drainTurn(t, l, backlog...)
			if l.eng.ActiveJobs() != len(backlog) {
				t.Fatalf("backlog: %d active, want %d", l.eng.ActiveJobs(), len(backlog))
			}
			published(t, l, 1, backlog...)
			for seq, id := uint64(2), int64(1); id <= 2; seq, id = seq+1, id+1 {
				op := submitOp(id, 16, 1)
				drainTurn(t, l, op)
				published(t, l, seq, op)
			}
			if d, ok := l.idle(); ok {
				t.Fatalf("idle with nothing pending waits %v, want forever", d)
			}
			published(t, l, 3) // nothing was delivered: nothing published

			// (e) Quit: queued ops are applied and published before the lane stops.
			last := []*ingest.Op{submitOp(3, 16, 1), submitOp(4, 4, 1)}
			if _, err := l.batcher.Enqueue(last...); err != nil {
				t.Fatal(err)
			}
			l.shutdownDrain(nil)
			if l.unpublished != 0 {
				t.Fatal("shutdown left a publish owed")
			}
			published(t, l, l.pub.Load().Seq, last...)
			if _, err := l.batcher.Enqueue(submitOp(5, 4, 1)); err != ingest.ErrClosed {
				t.Fatalf("enqueue after shutdown: %v, want ErrClosed", err)
			}
		})
	}
}

// TestWallWaitSaturates: an event too far away for time.Duration gives the
// capped positive wait, not an overflowed negative one.
func TestWallWaitSaturates(t *testing.T) {
	for _, runtime := range []float64{1e10, 1e300} {
		l := turnLane(t, false, func() float64 { return 0 })
		drainTurn(t, l, submitOp(1, 4, runtime))
		if d, ok := l.idle(); !ok || d <= 0 || d > maxWait {
			t.Fatalf("runtime %g: idle waits %v (%v), want (0, %v]", runtime, d, ok, maxWait)
		}
	}
}
