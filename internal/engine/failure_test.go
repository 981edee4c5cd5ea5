package engine_test

// Engine-level failure semantics: requeue vs kill, degraded scheduling,
// recovery re-offering capacity, and the failure counters in Snapshot.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

func newFailEngine(t *testing.T, tree *topology.FatTree, policy engine.FailurePolicy) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Alloc:     core.NewAllocator(tree),
		Window:    10,
		OnFailure: policy,
		History:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFailRequeuesIntersectingJob(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newFailEngine(t, tree, engine.FailRequeue)

	// One job holding the whole machine: any node failure intersects it.
	if err := eng.Submit(trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100}); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if st, _ := eng.Status(1); st.State != engine.StateRunning {
		t.Fatalf("job 1 state %v, want running", st.State)
	}

	rep, err := eng.Fail(topology.NodeFailure(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Requeued != 1 || rep.Killed != 0 {
		t.Fatalf("report %+v", rep)
	}
	// The machine is one node short of the job's size now, so the job waits
	// in the queue rather than rejecting: it fits once the node recovers.
	if st, _ := eng.Status(1); st.State != engine.StateQueued {
		t.Fatalf("job 1 state %v, want queued while degraded", st.State)
	}
	snap := eng.Snapshot()
	if snap.FailedNodes != 1 || snap.FailedLinks != 0 || snap.FailedSwitches != 0 {
		t.Fatalf("snapshot failure counters %d/%d/%d", snap.FailedNodes, snap.FailedLinks, snap.FailedSwitches)
	}
	if !eng.Degraded() {
		t.Fatal("engine not degraded")
	}

	// Recovery re-offers the node; the job restarts with its full runtime
	// and completes.
	if err := eng.Recover(topology.NodeFailure(0)); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.Status(1); st.State != engine.StateRunning {
		t.Fatalf("job 1 state %v, want running after recovery", st.State)
	}
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	if st, _ := eng.Status(1); st.State != engine.StateCompleted {
		t.Fatalf("job 1 state %v, want completed", st.State)
	}
	if c := eng.Counts(); c.Requeued != 1 || c.Started != 2 || c.Completed != 1 {
		t.Fatalf("counts %+v", c)
	}
	if eng.Degraded() {
		t.Fatal("engine still degraded after recovery")
	}
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailKillsIntersectingJob(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newFailEngine(t, tree, engine.FailKill)

	if err := eng.Submit(trace.Job{ID: 1, Size: 4, Arrival: 0, Runtime: 50}); err != nil {
		t.Fatal(err)
	}
	// A second job that does not touch the failed leaf switch survives.
	if err := eng.Submit(trace.Job{ID: 2, Size: 4, Arrival: 0, Runtime: 50}); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	st1, _ := eng.Status(1)
	if st1.State != engine.StateRunning {
		t.Fatalf("job 1 state %v", st1.State)
	}

	// Jigsaw packs both 4-node jobs onto leaf 0 and leaf 1; failing leaf
	// switch 0 must kill exactly the job(s) on leaf 0.
	rep, err := eng.Fail(topology.LeafSwitchFailure(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Killed != rep.Affected || rep.Requeued != 0 || rep.Affected == 0 {
		t.Fatalf("report %+v", rep)
	}
	killed := 0
	for _, id := range []int64{1, 2} {
		if st, _ := eng.Status(id); st.State == engine.StateKilled {
			killed++
		}
	}
	if killed != rep.Killed {
		t.Fatalf("%d jobs in StateKilled, report says %d", killed, rep.Killed)
	}
	if acc := eng.Accounting(); len(acc.Killed) != rep.Killed {
		t.Fatalf("accounting lists %d killed, report says %d", len(acc.Killed), rep.Killed)
	}
	snap := eng.Snapshot()
	if snap.FailedNodes != tree.NodesPerLeaf || snap.FailedSwitches != 1 {
		t.Fatalf("snapshot failure counters %d nodes / %d switches", snap.FailedNodes, snap.FailedSwitches)
	}
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	// Killed jobs never complete; the survivors do.
	c := eng.Counts()
	if c.Completed != c.Started-int64(rep.Killed) {
		t.Fatalf("counts %+v with %d killed", c, rep.Killed)
	}
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailRecoverErrors(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newFailEngine(t, tree, engine.FailRequeue)
	if _, err := eng.Fail(topology.NodeFailure(topology.NodeID(tree.Nodes()))); err == nil {
		t.Fatal("out-of-range failure accepted")
	}
	if err := eng.Recover(topology.NodeFailure(3)); err == nil {
		t.Fatal("recover of a never-failed spec accepted")
	}
	if _, err := eng.Fail(topology.NodeFailure(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Fail(topology.NodeFailure(3)); err == nil {
		t.Fatal("duplicate failure accepted")
	}
	if err := eng.Recover(topology.NodeFailure(3)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(topology.NodeFailure(3)); err == nil {
		t.Fatal("double recover accepted")
	}
}

func TestFailurePolicyParse(t *testing.T) {
	for _, p := range []engine.FailurePolicy{engine.FailRequeue, engine.FailKill, engine.FailShrink} {
		got, err := engine.ParseFailurePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v, %v", p, got, err)
		}
	}
	if p, err := engine.ParseFailurePolicy(""); err != nil || p != engine.FailRequeue {
		t.Fatalf("empty policy: %v, %v", p, err)
	}
	if _, err := engine.ParseFailurePolicy("explode"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
