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

// TestOverlappingFailuresRecoverInAnyOrder pins the one overlap rule at the
// engine: two specs that share a component are both accepted in either
// injection order; recovering one leaves exactly what the other takes down
// failed (the shared component included), the engine degraded and the shared
// component unallocatable; recovering the other then succeeds and the state
// is pristine. Before the active set moved into topology.State, recovering a
// leaf switch healed a node that had failed on its own, after which the node
// could be neither recovered nor failed again and Degraded() stayed true.
func TestOverlappingFailuresRecoverInAnyOrder(t *testing.T) {
	tree := topology.MustNew(8)
	type shared struct{ nodes, links int }
	for _, pair := range []struct {
		a, b   topology.Failure
		isDown func(st *topology.State) bool // the component both cover
	}{
		{topology.NodeFailure(5), topology.LeafSwitchFailure(1),
			func(st *topology.State) bool { return st.NodeFailed(5) && st.Owner(5) == topology.FailedOwner }},
		{topology.L2SwitchFailure(0, 1), topology.SpineSwitchFailure(1, 2),
			func(st *topology.State) bool {
				return st.SpineUplinkFailed(0, 1, 2) && st.SpineUpResidual(0, 1, 2) == 0
			}},
	} {
		alone := map[topology.Failure]shared{}
		for _, f := range []topology.Failure{pair.a, pair.b} {
			st := topology.NewState(tree, 1)
			if err := f.Apply(st); err != nil {
				t.Fatal(err)
			}
			alone[f] = shared{st.FailedNodes(), st.FailedLinks()}
		}
		for _, order := range [][4]topology.Failure{
			{pair.a, pair.b, pair.b, pair.a}, // the stuck state at the parent for (node, leaf-switch)
			{pair.a, pair.b, pair.a, pair.b},
			{pair.b, pair.a, pair.b, pair.a}, // second Fail refused at the parent for (node, leaf-switch)
			{pair.b, pair.a, pair.a, pair.b},
		} {
			eng := newFailEngine(t, tree, engine.FailRequeue)
			st := eng.Config().Alloc.State()
			for _, f := range order[:2] {
				if _, err := eng.Fail(f); err != nil {
					t.Fatalf("inject %v: fail %v: %v", order[:2], f, err)
				}
			}
			first, last := order[2], order[3]
			if err := eng.Recover(first); err != nil {
				t.Fatalf("inject %v: recover %v: %v", order[:2], first, err)
			}
			nodes, links, _ := eng.FailedResources()
			if want := alone[last]; nodes != want.nodes || links != want.links || !pair.isDown(st) || !eng.Degraded() {
				t.Fatalf("inject %v, recovered %v: %d nodes %d links failed, want %+v; shared component down=%v degraded=%v",
					order[:2], first, nodes, links, want, pair.isDown(st), eng.Degraded())
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// A whole-machine job needs the shared component: held, not
			// rejected and not started, until the last spec is recovered.
			if err := eng.Submit(trace.Job{ID: 1, Size: tree.Nodes(), Arrival: eng.Now(), Runtime: 10}); err != nil {
				t.Fatal(err)
			}
			eng.Step()
			if js, _ := eng.Status(1); js.State != engine.StateQueued || !pair.isDown(st) {
				t.Fatalf("inject %v, recovered %v: whole-machine job %v, shared component down=%v", order[:2], first, js.State, pair.isDown(st))
			}
			if _, err := eng.Fail(last); err == nil {
				t.Fatalf("active spec %v failed twice", last)
			}
			if err := eng.Recover(last); err != nil {
				t.Fatalf("inject %v: recover %v after %v: %v", order[:2], last, first, err)
			}
			if js, _ := eng.Status(1); js.State != engine.StateRunning {
				t.Fatalf("whole-machine job %v on the healed fabric", js.State)
			}
			for {
				if _, ok := eng.Step(); !ok {
					break
				}
			}
			nodes, links, switches := eng.FailedResources()
			if eng.Degraded() || nodes+links+switches != 0 || st.ActiveFailures() != nil || st.FreeNodes() != tree.Nodes() {
				t.Fatalf("inject %v, recover %v: not pristine: degraded=%v failed=%d/%d/%d active=%v",
					order[:2], order[2:], eng.Degraded(), nodes, links, switches, st.ActiveFailures())
			}
			for pod := 0; pod < tree.Pods; pod++ {
				if !st.FullyFreePod(pod) {
					t.Fatalf("pod %d not fully free after recovering %v", pod, order[2:])
				}
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
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
