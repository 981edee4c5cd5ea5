package server

// A lane one turn at a time: no goroutine, no sleep, a fake nowFunc for the
// engine's clock and fabricated instants for the throttle's.

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

// at is a clock that always reads t.
func at(t time.Time) func() time.Time { return func() time.Time { return t } }

// drainTurn enqueues ops and takes the one drain turn that applies them at
// now.
func drainTurn(t *testing.T, l *lane, now time.Time, ops ...*ingest.Op) {
	t.Helper()
	if _, err := l.batcher.Enqueue(ops...); err != nil {
		t.Fatal(err)
	}
	if got := l.batcher.Collect(nil); len(got) != len(ops) {
		t.Fatalf("collected %d of %d ops", len(got), len(ops))
	}
	l.drain(now, ops)
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
		if got, ok := v.Jobs[op.Job.ID]; !ok || got.State != op.Status.State {
			t.Fatalf("job %d answered %v but the View shows %v (present %v)", op.Job.ID, op.Status.State, got.State, ok)
		}
	}
}

// TestLaneTurns pins a lane's contract turn by turn on both clocks: (a) a
// wall-clock drain applies its batch after the completions due by now, (b)
// below the threshold every op's effect is published before its producer is
// released, (c) an idle turn waits until the engine's next event on the wall
// clock and not at all on the virtual one while events are pending, (d)
// above the threshold a drain inside the interval defers and the idle turn
// wakes exactly at the flush instant, and (e) the shutdown turn applies
// every queued op and publishes.
func TestLaneTurns(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		t.Run(fmt.Sprintf("virtual=%v", virtual), func(t *testing.T) {
			clock := &fakeClock{}
			l := turnLane(t, virtual, clock.Now)
			now := time.Now()

			// (b) Two whole-machine jobs: one runs until t=1, one waits.
			first := []*ingest.Op{submitOp(1, 16, 1), submitOp(2, 16, 1)}
			drainTurn(t, l, now, first...)
			published(t, l, 1, first...)
			if first[0].Status.State != engine.StateRunning || first[1].Status.State != engine.StateQueued {
				t.Fatalf("states %v, %v; want running, queued", first[0].Status.State, first[1].Status.State)
			}

			if virtual {
				// (c) Stepping job 1's completion starts job 2: more is due.
				if d, ok := l.idle(at(now)); !ok || d != 0 {
					t.Fatalf("idle with events pending waits %v (%v), want 0", d, ok)
				}
				published(t, l, 1) // one step is not yet worth a publish
				// Stepping job 2's completion leaves nothing: publish, sleep.
				if d, ok := l.idle(at(now)); ok {
					t.Fatalf("idle with no event pending waits %v, want forever", d)
				}
				if v := l.pub.Load(); v.Seq != 2 || v.Snap.Now != 2 || len(v.Jobs) != 0 {
					t.Fatalf("going idle published seq %d at t=%g with %d jobs; want seq 2, t=2, none", v.Seq, v.Snap.Now, len(v.Jobs))
				}
			} else {
				// (c) The next event is job 1's completion, one second away.
				if d, ok := l.idle(at(now)); !ok || d != time.Second {
					t.Fatalf("idle waits %v (%v), want 1s (the next event)", d, ok)
				}
				published(t, l, 1, first...) // nothing was due: nothing published
				// (a) At t=5 both jobs ended (at 1 and 2) before job 3 applies.
				clock.Set(5)
				third := submitOp(3, 16, 1)
				drainTurn(t, l, now, third)
				published(t, l, 2, third)
				if st := third.Status; st.State != engine.StateRunning || st.Start != 5 {
					t.Fatalf("job 3 %v at %g; want running from 5", st.State, st.Start)
				}
				if c := l.pub.Load().Snap.Counts; c.Completed != 2 {
					t.Fatalf("completed %d before job 3, want 2", c.Completed)
				}
				if d, ok := l.idle(at(now)); !ok || d != time.Second {
					t.Fatalf("idle waits %v (%v), want 1s (job 3 ends at 6)", d, ok)
				}
			}

			// (d) A fresh lane with node 15 failed: no whole-machine job can
			// start, so nothing is ever due and only the throttle decides.
			l = turnLane(t, virtual, clock.Now)
			if _, err := l.eng.Fail(topology.NodeFailure(15)); err != nil {
				t.Fatal(err)
			}
			backlog := make([]*ingest.Op, publishCheapThreshold+100)
			for i := range backlog {
				backlog[i] = submitOp(int64(100+i), 16, 1)
			}
			drainTurn(t, l, now, backlog...) // the first publish is never deferred
			if l.eng.ActiveJobs() <= publishCheapThreshold || l.pub.Load().Seq != 1 || l.publishPending {
				t.Fatalf("backlog: %d active, seq %d, pending %v", l.eng.ActiveJobs(), l.pub.Load().Seq, l.publishPending)
			}
			inside := l.lastPublish.Add(time.Millisecond)
			deferred := submitOp(1, 16, 1)
			drainTurn(t, l, inside, deferred)
			if _, ok := l.pub.Load().Jobs[1]; ok || !l.publishPending || deferred.Status.State != engine.StateQueued {
				t.Fatal("a drain inside the interval published")
			}
			flush := l.lastPublish.Add(l.publishInterval())
			if d, ok := l.idle(at(inside)); !ok || !inside.Add(d).Equal(flush) {
				t.Fatalf("idle wakes %v after the last publish, want the interval %v", inside.Add(d).Sub(l.lastPublish), l.publishInterval())
			}
			if _, ok := l.idle(at(flush)); ok || l.publishPending {
				t.Fatalf("idle at the flush instant: wait %v, pending %v", ok, l.publishPending)
			}
			published(t, l, 2, deferred)
			past := submitOp(2, 16, 1)
			drainTurn(t, l, l.lastPublish.Add(l.publishInterval()), past)
			published(t, l, 3, past) // a drain past the interval publishes

			// (e) Quit: queued ops are applied and published before the lane stops.
			last := []*ingest.Op{submitOp(3, 16, 1), submitOp(4, 4, 1)}
			if _, err := l.batcher.Enqueue(last...); err != nil {
				t.Fatal(err)
			}
			l.shutdownDrain(nil)
			if l.publishPending || l.unpublished != 0 {
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
		drainTurn(t, l, time.Now(), submitOp(1, 4, runtime))
		if d, ok := l.idle(time.Now); !ok || d <= 0 || d > maxWait {
			t.Fatalf("runtime %g: idle waits %v (%v), want (0, %v]", runtime, d, ok, maxWait)
		}
	}
}
