package server

// The incremental View against a full capture of its engine. A publish folds
// in only the jobs the engine reports changed and shares every other chunk
// with the previous View; capture copies the whole engine the way every
// publish did before, and is the oracle: after every operation and publish,
// on every policy, through failures, recoveries, requeues, elastic moves and
// cross-shard placements, the two must agree on every job, the FIFO order and
// every scalar.

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/trace"
)

// captured is everything a View shows of an engine, copied whole.
type captured struct {
	snap                   engine.Snapshot
	version                uint64
	utilNow, utilSteady    float64
	hits, misses, invalids int
}

func capture(e *engine.Engine) captured {
	acc := e.Accounting()
	s := e.Snapshot()
	return captured{
		snap: s, version: e.StateVersion(),
		utilNow: e.UtilizationTo(s.Now), utilSteady: e.SteadyUtilization(),
		hits: acc.FeasCacheHits, misses: acc.FeasCacheMisses, invalids: acc.FeasCacheInvalidations,
	}
}

// check reports the first way v differs from the capture. Every ID in probe
// that the capture does not hold must be absent from v as well.
func (c captured) check(v *snapshot.View, probe []int64) error {
	if v.Snap != c.snap.Summary {
		return fmt.Errorf("summary %+v, capture %+v", v.Snap, c.snap.Summary)
	}
	if v.StateVersion != c.version || v.UtilNow != c.utilNow || v.UtilSteady != c.utilSteady ||
		v.FeasHits != c.hits || v.FeasMisses != c.misses || v.FeasInvalidations != c.invalids {
		return fmt.Errorf("view figures %d %g %g %d %d %d, capture %+v",
			v.StateVersion, v.UtilNow, v.UtilSteady, v.FeasHits, v.FeasMisses, v.FeasInvalidations, c)
	}
	one := []*snapshot.View{v}
	var queue []engine.JobStatus
	v.WalkQueue(func(st engine.JobStatus) { queue = append(queue, st) })
	if err := sameList("FIFO walk", queue, c.snap.Queue); err != nil {
		return err
	}
	if err := sameList("running list", snapshot.MergeRunning(one), c.snap.Running); err != nil {
		return err
	}
	active := map[int64]bool{}
	for _, st := range append(slices.Clone(c.snap.Queue), c.snap.Running...) {
		active[st.Job.ID] = true
		if got, ok := v.Job(st.Job.ID); !ok || got != st {
			return fmt.Errorf("Job(%d) = %+v, %v; capture %+v", st.Job.ID, got, ok, st)
		}
	}
	for _, id := range probe {
		if st, ok := v.Job(id); ok && !active[id] {
			return fmt.Errorf("Job(%d) = %+v, a job the capture does not hold", id, st)
		}
	}
	return nil
}

// sameList reports the first entry where got and the capture's want differ.
func sameList(what string, got, want []engine.JobStatus) error {
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			var g, w any = "nothing", "nothing"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			return fmt.Errorf("%s entry %d of %d: %+v; capture, of %d: %+v", what, i, len(got), g, len(want), w)
		}
	}
	return nil
}

func TestIncrementalViewMatchesCapture(t *testing.T) {
	for _, scheme := range experiments.Registered {
		for _, fp := range []engine.FailurePolicy{engine.FailShrink, engine.FailRequeue, engine.FailKill} {
			t.Run(scheme+"/"+fp.String(), func(t *testing.T) { viewHistory(t, scheme, fp) })
		}
	}
	t.Run("coordinator", viewHistoryCross)
}

// viewFailures are specs for a radix-8 tree (4 nodes per leaf, 4 leaves per
// pod) that overlap each other.
var viewFailures = []topology.Failure{
	topology.NodeFailure(2),
	topology.LeafSwitchFailure(0),
	topology.LeafUplinkFailure(5, 1),
	topology.L2SwitchFailure(2, 3),
	topology.SpineSwitchFailure(1, 1),
}

// viewHistory drives one elastic engine through a random history of
// submits, steps, cancels, failures, recoveries and StartPlaced, publishing
// after every operation and checking the View against a capture. A View
// retained early is checked against its own capture at the end, 1 100
// publishes later.
func viewHistory(t *testing.T, scheme string, fp engine.FailurePolicy) {
	tree := topology.MustNew(8)
	a, err := experiments.NewAllocator(scheme, tree)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Alloc: a, Window: 10, OnFailure: fp, Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	p := snapshot.NewPublisher(e)
	rng := rand.New(rand.NewSource(int64(len(scheme))*10 + int64(fp)))
	var known []int64
	next := int64(1)
	job := func(size int) trace.Job {
		j := trace.Job{ID: next, Size: size, Arrival: e.Now() + float64(rng.Intn(2)), Runtime: 1 + rng.Float64()*60}
		next++
		known = append(known, j.ID)
		return j
	}
	failed := make([]bool, len(viewFailures))
	var retained *snapshot.View
	var retainedCap captured
	const steps, retainAt = 1200, 100
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(14); {
		case op < 4: // rigid; one in ten never fits
			size := 1 + rng.Intn(tree.Nodes()/3)
			if rng.Intn(10) == 0 {
				size = tree.Nodes() + 1
			}
			if err := e.Submit(job(size)); err != nil {
				t.Fatal(err)
			}
		case op < 6: // elastic: bounds, priority, deadline
			size := 2 + rng.Intn(tree.Nodes()/4)
			j := job(size)
			j.MinNodes, j.MaxNodes, j.Priority = 1+rng.Intn(size), size+rng.Intn(size+1), rng.Intn(3)
			if rng.Intn(3) == 0 {
				j.Deadline = j.Arrival + j.Runtime*(0.4+rng.Float64()*4)
			}
			if err := e.Submit(j); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			e.Step()
		case op == 8:
			e.AdvanceTo(e.Now() + rng.Float64()*10)
		case op == 9 || op == 10:
			i := rng.Intn(len(viewFailures))
			if failed[i] {
				if err := e.Recover(viewFailures[i]); err != nil {
					t.Fatal(err)
				}
			} else if _, err := e.Fail(viewFailures[i]); err != nil {
				t.Fatal(err)
			}
			failed[i] = !failed[i]
		case op == 11 && len(known) > 0:
			e.Cancel(known[rng.Intn(len(known))]) // a finished job's refusal is fine
		case op == 12: // a cross-shard slice: placed on a copy of the state, charged whole
			j := job(1 + rng.Intn(8))
			if pl, ok := a.Clone().Allocate(topology.JobID(j.ID), j.Size); ok {
				if _, err := e.StartPlaced(j, j.Runtime, pl); err != nil {
					t.Fatal(err)
				}
			}
		case len(known) > 0:
			for i := rng.Intn(4); i >= 0; i-- {
				if j := known[len(known)-1-rng.Intn(min(len(known), 8))]; rng.Intn(2) == 0 {
					e.Cancel(j)
				}
			}
		}
		v := p.Publish(e)
		c := capture(e)
		if err := c.check(v, known); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step == retainAt {
			retained, retainedCap = v, c
		}
	}
	if err := retainedCap.check(retained, known); err != nil {
		t.Fatalf("View retained at step %d, %d publishes later: %v", retainAt, steps-retainAt-1, err)
	}
	if moves := e.Counts(); moves.Requeued+moves.Killed+moves.Shrunk == 0 || moves.Grown+moves.Preempted == 0 || moves.Cancelled == 0 {
		t.Fatalf("history too tame to pin anything: %+v", moves)
	}
}

// viewHistoryCross runs a four-lane server whose coordinator parks lanes
// and starts wide jobs' slices with StartPlaced, beside shard-local jobs,
// cancels and failures; checkLanes compares every lane's View with a capture
// of its engine after each operation.
func viewHistoryCross(t *testing.T) {
	clock := &fakeClock{}
	s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), Shards: 4, Elastic: true, nowFunc: clock.Now})
	base := hs.URL
	rng := rand.New(rand.NewSource(44))
	var known []int64
	narrow, wide := int64(1), int64(500000)
	for step := 0; step < 120; step++ {
		switch op := rng.Intn(8); {
		case op < 3:
			postJob(t, base, fmt.Sprintf(`{"id":%d,"size":%d,"runtime":%d}`, narrow, 1+rng.Intn(24), 1+rng.Intn(20)))
			known, narrow = append(known, narrow), narrow+1
		case op < 5:
			postJob(t, base, fmt.Sprintf(`{"id":%d,"size":%d,"runtime":%d,"min_nodes":33}`, wide, 40+rng.Intn(40), 1+rng.Intn(20)))
			known, wide = append(known, wide), wide+1
		case op == 5:
			deleteJob(t, base, known[rng.Intn(len(known))])
		case op == 6:
			node := fmt.Sprintf(`{"kind":"node","node":%d}`, rng.Intn(128))
			if resp, _ := postFailure(t, base+"/v1/fail", node); resp.StatusCode != http.StatusOK {
				postFailure(t, base+"/v1/recover", node)
			}
		default:
			clock.Set(clock.Now() + float64(rng.Intn(6)))
			for _, l := range s.lanes {
				if err := l.do(func(*engine.Engine) {}); err != nil { // deliver and publish what is due
					t.Fatal(err)
				}
			}
		}
		checkLanes(t, s, known...)
	}
	if cs := s.cross.stats(); cs.Placed == 0 {
		t.Fatalf("no wide job was placed: %+v", cs)
	}
}
