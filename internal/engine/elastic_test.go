package engine_test

// Unit tests for the malleability layer: shrink under FailShrink (with the
// work-conservation arithmetic and the requeue fallback), grow into freed
// capacity, priority preemption with checkpoint-requeue, deadline admission
// verdicts, the PartitionFinder verify guard, and the policy's wire name.

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/topology"
	"repro/internal/trace"
)

func newElasticEngine(t *testing.T, a alloc.Allocator) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Alloc:     a,
		Window:    10,
		OnFailure: engine.FailShrink,
		Elastic:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func drainEngine(e *engine.Engine) {
	for {
		if _, ok := e.Step(); !ok {
			break
		}
	}
}

func TestElasticShrinkOnFailure(t *testing.T) {
	tree := topology.MustNew(8) // 256 nodes, 4 per leaf
	eng := newElasticEngine(t, core.NewAllocator(tree))

	// A whole-machine malleable job: any failure intersects it, and the
	// shrink search must re-place it on the 252 surviving nodes.
	j := trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100, MinNodes: 4}
	if err := eng.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	rep, err := eng.Fail(topology.LeafSwitchFailure(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Shrunk != 1 || rep.Requeued != 0 || rep.Killed != 0 {
		t.Fatalf("report %+v, want 1 affected and 1 shrunk", rep)
	}
	st, _ := eng.Status(1)
	if st.State != engine.StateRunning {
		t.Fatalf("job state %v, want running after shrink", st.State)
	}
	// The largest legal Jigsaw partition on the surviving fabric need not be
	// exactly the surviving node count (shapes are quantized), only bounded
	// by it and the declared minimum.
	if st.Job.Size >= tree.Nodes() || st.Job.Size > tree.Nodes()-tree.NodesPerLeaf || st.Job.Size < j.MinNodes {
		t.Fatalf("shrunk size %d, want a legal size in [%d, %d]", st.Job.Size, j.MinNodes, tree.Nodes()-tree.NodesPerLeaf)
	}
	// Work conservation: 100s of work on the whole machine becomes
	// 100*Nodes/newSize seconds on the shrunk partition (the failure struck
	// at t=0 with the full runtime left).
	wantEnd := 100 * float64(tree.Nodes()) / float64(st.Job.Size)
	if math.Abs(st.End-wantEnd) > 1e-9 {
		t.Fatalf("shrunk completion at %v, want %v", st.End, wantEnd)
	}
	if c := eng.Counts(); c.Shrunk != 1 {
		t.Fatalf("counts %+v, want Shrunk=1", c)
	}
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	drainEngine(eng)
	if st, _ := eng.Status(1); st.State != engine.StateCompleted {
		t.Fatalf("job state %v, want completed", st.State)
	}
}

func TestElasticShrinkFallbackRequeues(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newElasticEngine(t, core.NewAllocator(tree))

	// MinNodes leaves no feasible size on the degraded fabric (255 > 252
	// surviving nodes), so the shrink attempt must fall back to a requeue
	// with the FULL runtime — a failure destroys in-memory state.
	j := trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100, MinNodes: tree.Nodes() - 1}
	if err := eng.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	eng.AdvanceTo(40) // burn 40s of progress the fallback must discard
	rep, err := eng.Fail(topology.LeafSwitchFailure(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shrunk != 0 || rep.Requeued != 1 {
		t.Fatalf("report %+v, want the shrink to fall back to requeue", rep)
	}
	if st, _ := eng.Status(1); st.State != engine.StateQueued {
		t.Fatalf("job state %v, want queued", st.State)
	}
	if err := eng.Recover(topology.LeafSwitchFailure(0)); err != nil {
		t.Fatal(err)
	}
	drainEngine(eng)
	st, _ := eng.Status(1)
	if st.State != engine.StateCompleted {
		t.Fatalf("job state %v, want completed", st.State)
	}
	// Restarted from scratch at t=40: the full 100s runtime again.
	if math.Abs((st.End-st.Start)-100) > 1e-9 || st.Start != 40 {
		t.Fatalf("restart ran %v..%v, want 40..140", st.Start, st.End)
	}
}

func TestElasticGrowIntoFreedCapacity(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newElasticEngine(t, core.NewAllocator(tree))

	half := tree.Nodes() / 2
	grower := trace.Job{ID: 1, Size: half, Arrival: 0, Runtime: 100, MaxNodes: tree.Nodes()}
	rigid := trace.Job{ID: 2, Size: half, Arrival: 0, Runtime: 50}
	for _, j := range []trace.Job{grower, rigid} {
		if err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	drainEngine(eng)
	if c := eng.Counts(); c.Grown != 1 {
		t.Fatalf("counts %+v, want Grown=1", c)
	}
	st, _ := eng.Status(1)
	// The rigid neighbor completes at t=50 with the queue empty; the grower
	// doubles from 128 to 256 nodes with 50s left -> 25s left -> ends at 75.
	if math.Abs(st.End-75) > 1e-9 {
		t.Fatalf("grown job completed at %v, want 75", st.End)
	}
	if st.Job.Size != tree.Nodes() {
		t.Fatalf("grown size %d, want %d", st.Job.Size, tree.Nodes())
	}
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestElasticGrowYieldsToQueuedJobs(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newElasticEngine(t, core.NewAllocator(tree))

	half := tree.Nodes() / 2
	jobs := []trace.Job{
		{ID: 1, Size: half, Arrival: 0, Runtime: 100, MaxNodes: tree.Nodes()},
		{ID: 2, Size: half, Arrival: 0, Runtime: 50},
		// Arrives while the machine is full and must get the capacity the
		// rigid job frees at t=50 — the grower may not starve it.
		{ID: 3, Size: half, Arrival: 10, Runtime: 30},
	}
	for _, j := range jobs {
		if err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	drainEngine(eng)
	st3, _ := eng.Status(3)
	if st3.Start != 50 {
		t.Fatalf("queued job started at %v, want 50 (first claim on freed capacity)", st3.Start)
	}
	// Only after job 3 finishes at t=80 does the empty queue let job 1 grow.
	st1, _ := eng.Status(1)
	if c := eng.Counts(); c.Grown != 1 {
		t.Fatalf("counts %+v, want Grown=1 (after the queue drained)", c)
	}
	// Grow fires at t=80 with 20s left -> 10s left -> ends at 90.
	if math.Abs(st1.End-90) > 1e-9 {
		t.Fatalf("grower completed at %v, want 90", st1.End)
	}
}

func TestElasticPreemptCheckpointsVictim(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newElasticEngine(t, core.NewAllocator(tree))

	victim := trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100}
	urgent := trace.Job{ID: 2, Size: tree.Nodes(), Arrival: 10, Runtime: 20, Priority: 1}
	for _, j := range []trace.Job{victim, urgent} {
		if err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Step() // victim starts at 0
	eng.Step() // urgent arrives at 10, preempts
	stV, _ := eng.Status(1)
	stU, _ := eng.Status(2)
	if stU.State != engine.StateRunning || stV.State != engine.StateQueued {
		t.Fatalf("states victim=%v urgent=%v, want queued/running", stV.State, stU.State)
	}
	if c := eng.Counts(); c.Preempted != 1 {
		t.Fatalf("counts %+v, want Preempted=1", c)
	}
	drainEngine(eng)
	stV, _ = eng.Status(1)
	stU, _ = eng.Status(2)
	// The urgent job runs 10..30; the checkpointed victim restarts at 30
	// with its remaining 90s (10s of completed work preserved) -> ends 120.
	if math.Abs(stU.End-30) > 1e-9 {
		t.Fatalf("urgent completed at %v, want 30", stU.End)
	}
	if math.Abs(stV.End-120) > 1e-9 {
		t.Fatalf("victim completed at %v, want 120 (checkpointed, not restarted)", stV.End)
	}
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestElasticPreemptNeverTakesEqualPriority(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newElasticEngine(t, core.NewAllocator(tree))

	a := trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100, Priority: 1}
	b := trace.Job{ID: 2, Size: tree.Nodes(), Arrival: 10, Runtime: 20, Priority: 1}
	for _, j := range []trace.Job{a, b} {
		if err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Step()
	eng.Step()
	if st, _ := eng.Status(2); st.State != engine.StateQueued {
		t.Fatalf("equal-priority job state %v, want queued (no preemption)", st.State)
	}
	if c := eng.Counts(); c.Preempted != 0 {
		t.Fatalf("counts %+v, want Preempted=0", c)
	}
	drainEngine(eng)
}

func TestDeadlineVerdicts(t *testing.T) {
	tree := topology.MustNew(8)
	eng := newElasticEngine(t, core.NewAllocator(tree))

	// Provably impossible: arrival + runtime already past the deadline.
	if err := eng.Submit(trace.Job{ID: 1, Size: 4, Arrival: 0, Runtime: 100, Deadline: 50}); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.Status(1)
	if st.State != engine.StateRejected || st.Verdict != engine.VerdictRejected {
		t.Fatalf("impossible deadline: state %v verdict %q", st.State, st.Verdict)
	}

	// Fits an idle machine with slack: accepted.
	if err := eng.Submit(trace.Job{ID: 2, Size: tree.Nodes(), Arrival: 0, Runtime: 100, Deadline: 150}); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.Status(2); st.Verdict != engine.VerdictAccepted {
		t.Fatalf("idle-machine job verdict %q, want accepted", st.Verdict)
	}
	eng.Step() // job 2 occupies the whole machine until t=100

	// Must wait for job 2 (earliest start 100), 50s of work, deadline 120:
	// admitted but flagged at risk.
	if err := eng.Submit(trace.Job{ID: 3, Size: tree.Nodes(), Arrival: 0, Runtime: 50, Deadline: 120}); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.Status(3); st.State != engine.StateQueued || st.Verdict != engine.VerdictAtRisk {
		t.Fatalf("tight-deadline job: state %v verdict %q, want queued/accepted-at-risk", st.State, st.Verdict)
	}

	// Same wait but with slack (deadline 200): accepted.
	if err := eng.Submit(trace.Job{ID: 4, Size: tree.Nodes(), Arrival: 0, Runtime: 50, Deadline: 200}); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.Status(4); st.Verdict != engine.VerdictAccepted {
		t.Fatalf("slack-deadline job verdict %q, want accepted", st.Verdict)
	}

	// Never fits the machine at all: rejected at submit.
	if err := eng.Submit(trace.Job{ID: 5, Size: tree.Nodes() + 1, Arrival: 0, Runtime: 10, Deadline: 1e9}); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.Status(5); st.State != engine.StateRejected || st.Verdict != engine.VerdictRejected {
		t.Fatalf("oversize deadline job: state %v verdict %q", st.State, st.Verdict)
	}

	drainEngine(eng)
	// The at-risk admissions still run to completion; only ID 1 and 5 were
	// refused.
	c := eng.Counts()
	if c.Rejected != 2 || c.Completed != 3 {
		t.Fatalf("counts %+v, want 2 rejected / 3 completed", c)
	}
}

// verifyingPF wraps an allocator whose partition search is exposed
// (alloc.PartitionFinder) and independently re-verifies every partition the
// engine's elastic moves find. Embedding the interface hides the TxnAllocator
// extension, so this also exercises the non-transactional elastic fallbacks.
type verifyingPF struct {
	alloc.Allocator
	t     *testing.T
	tree  *topology.FatTree
	finds *int
}

func (v verifyingPF) FindJobPartition(job topology.JobID, size int) (*partition.Partition, bool) {
	p, ok := v.Allocator.(alloc.PartitionFinder).FindJobPartition(job, size)
	if ok {
		*v.finds++
		if err := p.Verify(v.tree); err != nil {
			v.t.Errorf("FindJobPartition(%d, %d) returned an illegal partition: %v", job, size, err)
		}
	}
	return p, ok
}

func TestElasticMovesConsultVerifiedPartitions(t *testing.T) {
	tree := topology.MustNew(8)
	finds := 0
	eng := newElasticEngine(t, verifyingPF{core.NewAllocator(tree), t, tree, &finds})

	if err := eng.Submit(trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100, MinNodes: 4}); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if _, err := eng.Fail(topology.LeafSwitchFailure(0)); err != nil {
		t.Fatal(err)
	}
	if c := eng.Counts(); c.Shrunk != 1 {
		t.Fatalf("counts %+v, want Shrunk=1", c)
	}
	if finds == 0 {
		t.Fatal("shrink never consulted the allocator's partition search")
	}
	if err := eng.Recover(topology.LeafSwitchFailure(0)); err != nil {
		t.Fatal(err)
	}
	drainEngine(eng)
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailShrinkWireName pins the policy's one spelling; the retired
// "shrink-none" fails like any other unknown policy.
func TestFailShrinkWireName(t *testing.T) {
	if p, err := engine.ParseFailurePolicy("shrink"); err != nil || p != engine.FailShrink {
		t.Fatalf("ParseFailurePolicy(\"shrink\") = %v, %v", p, err)
	}
	if got := engine.FailShrink.String(); got != "shrink" {
		t.Fatalf("FailShrink.String() = %q, want \"shrink\"", got)
	}
	_, err := engine.ParseFailurePolicy("shrink-none")
	if want := `engine: unknown failure policy "shrink-none"`; err == nil || err.Error() != want {
		t.Fatalf("ParseFailurePolicy(\"shrink-none\") error = %v, want %s", err, want)
	}
}

// TestRigidShrinkPolicyFallsBackToRequeue pins the policy-matrix corner: a
// rigid job under FailShrink behaves exactly like FailRequeue, and an
// elastic job on a NON-elastic engine does too (double gating).
func TestRigidShrinkPolicyFallsBackToRequeue(t *testing.T) {
	tree := topology.MustNew(8)
	for _, tc := range []struct {
		name    string
		elastic bool
		job     trace.Job
	}{
		{"rigid-job", true, trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100}},
		{"elastic-config-off", false, trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100, MinNodes: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.New(engine.Config{
				Alloc:     core.NewAllocator(tree),
				Window:    10,
				OnFailure: engine.FailShrink,
				Elastic:   tc.elastic,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Submit(tc.job); err != nil {
				t.Fatal(err)
			}
			eng.Step()
			rep, err := eng.Fail(topology.NodeFailure(0))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Shrunk != 0 || rep.Requeued != 1 {
				t.Fatalf("report %+v, want a plain requeue", rep)
			}
		})
	}
}
