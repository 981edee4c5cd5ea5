package engine_test

// The undo half of the elastic moves and the degraded half of deadline
// admission. A grow or preempt attempt releases running placements before it
// searches; when the search finds nothing, the placements are charged back
// and the attempt must be invisible — on an allocator with transactions and
// on one without (cloneOnly): both undo the same way, with Mirror.

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// undoAllocators are the two allocator shapes every failed-attempt test runs
// on: the real one (transactions, feasibility cache, partition finder) and
// the bare alloc.Allocator view of it.
var undoAllocators = []struct {
	name string
	mk   func(*topology.FatTree) alloc.Allocator
}{
	{"txn", func(tree *topology.FatTree) alloc.Allocator { return core.NewAllocator(tree) }},
	{"cloneOnly", func(tree *topology.FatTree) alloc.Allocator { return cloneOnly{core.NewAllocator(tree)} }},
}

// liveView is what a test can see of the live allocation state from outside:
// who owns every node, and what the next 4-node job would be handed (nil when
// it would not fit).
type liveView struct {
	owners []topology.JobID
	next   *topology.Placement
}

func viewOf(a alloc.Allocator) liveView {
	v := liveView{owners: make([]topology.JobID, a.Tree().Nodes())}
	for n := range v.owners {
		v.owners[n] = a.State().Owner(topology.NodeID(n))
	}
	if pl, ok := a.Allocate(topology.JobID(1<<40), 4); ok {
		a.Release(pl)
		v.next = pl
	}
	return v
}

// checkUntouched asserts that a failed attempt left nothing behind.
func checkUntouched(t *testing.T, eng *engine.Engine, want engine.Snapshot, wantLive liveView) {
	t.Helper()
	a := eng.Config().Alloc
	if got := eng.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot changed by a failed attempt\n got: %+v\nwant: %+v", got, want)
	}
	if got := eng.Counts(); got != want.Counts {
		t.Errorf("counts %+v, want %+v", got, want.Counts)
	}
	if got := a.FreeNodes(); got != want.FreeNodes {
		t.Errorf("free nodes %d, want %d", got, want.FreeNodes)
	}
	if err := a.State().CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := viewOf(a); !reflect.DeepEqual(got, wantLive) {
		t.Errorf("live state changed by a failed attempt\n got: %+v\nwant: %+v", got, wantLive)
	}
}

func submitAll(t *testing.T, eng *engine.Engine, jobs ...trace.Job) {
	t.Helper()
	for _, j := range jobs {
		if err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGrowAttemptThatPlacesNothingIsInvisible: a malleable job sits on one
// leaf and the only free nodes are a second leaf whose four uplinks have
// failed, so every size in (Size, MaxSize] needs a link that is not there.
// The attempt releases the job, searches sizes 8..5, and puts it back.
func TestGrowAttemptThatPlacesNothingIsInvisible(t *testing.T) {
	tree := topology.MustNew(8) // 128 nodes, 4 per leaf
	for _, v := range undoAllocators {
		t.Run(v.name, func(t *testing.T) {
			eng := newElasticEngine(t, v.mk(tree))
			cutOff := tree.Leaves() - 1
			for l2 := 0; l2 < tree.L2PerPod; l2++ {
				if _, err := eng.Fail(topology.LeafUplinkFailure(cutOff, l2)); err != nil {
					t.Fatal(err)
				}
			}
			submitAll(t, eng,
				trace.Job{ID: 1, Size: tree.Nodes() - 8, Runtime: 1000},
				trace.Job{ID: 2, Size: 4, Runtime: 100, MaxNodes: 8},
			)
			eng.Step()
			if s := eng.Snapshot(); s.RunningJobs != 2 || s.FreeNodes != 4 || s.Counts.Grown != 0 {
				t.Fatalf("setup: want two running jobs and the cut-off leaf free, got %+v", s)
			}
			// A job cancelled before it arrives changes nothing but the
			// cancelled count — and makes the engine run a scheduling pass,
			// which with an empty queue is a grow pass.
			submitAll(t, eng, trace.Job{ID: 3, Size: 1, Arrival: 500, Runtime: 1})
			want := eng.Snapshot()
			want.Counts.Cancelled++
			wantLive := viewOf(eng.Config().Alloc)
			calls := eng.Accounting().AllocCalls
			if _, err := eng.Cancel(3); err != nil {
				t.Fatal(err)
			}
			if got := eng.Accounting().AllocCalls - calls; got != 4 {
				t.Fatalf("grow attempt made %d placement attempts, want 4 (sizes 8..5)", got)
			}
			checkUntouched(t, eng, want, wantLive)
		})
	}
}

// TestPreemptAttemptThatCannotFitIsInvisible: an urgent whole-machine head
// arrives while an equal-priority job it may not displace holds eight nodes.
// Both lower-priority victims are released, the head still does not fit, and
// both are charged back; only the head's arrival shows.
func TestPreemptAttemptThatCannotFitIsInvisible(t *testing.T) {
	tree := topology.MustNew(8)
	for _, v := range undoAllocators {
		t.Run(v.name, func(t *testing.T) {
			eng := newElasticEngine(t, v.mk(tree))
			head := trace.Job{ID: 4, Size: tree.Nodes(), Arrival: 5, Runtime: 10, Priority: 1}
			submitAll(t, eng,
				trace.Job{ID: 1, Size: 56, Runtime: 1000},
				trace.Job{ID: 2, Size: 56, Runtime: 1000},
				trace.Job{ID: 3, Size: 8, Runtime: 1000, Priority: 1},
				head,
			)
			eng.Step()
			want := eng.Snapshot()
			if want.RunningJobs != 3 || want.FreeNodes != 8 {
				t.Fatalf("setup: want three running jobs and 8 free nodes, got %+v", want)
			}
			wantLive := viewOf(eng.Config().Alloc)
			calls := eng.Accounting().AllocCalls
			eng.Step() // t=5: the head arrives, tries to preempt, and waits
			st, _ := eng.Status(head.ID)
			if st.State != engine.StateQueued {
				t.Fatalf("head state %v, want queued", st.State)
			}
			// One attempt for the head itself; the victims never free enough
			// nodes for a second.
			if got := eng.Accounting().AllocCalls - calls; got != 1 {
				t.Fatalf("%d placement attempts, want 1", got)
			}
			want.Now = 5
			want.PendingEvents--
			want.QueueDepth = 1
			want.Queue = []engine.JobStatus{st}
			checkUntouched(t, eng, want, wantLive)
		})
	}
}

// TestDeadlineAdmission pins what "rejected" means: never fits a healthy
// machine. A job that fits nothing only because of an active failure is
// admitted at risk and held like a rigid job would be.
func TestDeadlineAdmission(t *testing.T) {
	tree := topology.MustNew(8)
	leaf0 := topology.LeafSwitchFailure(0)
	for _, tc := range []struct {
		name        string
		fail        *topology.Failure
		job         trace.Job
		wantVerdict engine.Verdict
		wantState   engine.State // right after Submit
		wantFinal   engine.State // after recovery and a drain
	}{
		{"degraded/whole-machine", &leaf0,
			trace.Job{ID: 1, Size: tree.Nodes(), Runtime: 10, Deadline: 1e6},
			engine.VerdictAtRisk, engine.StateQueued, engine.StateCompleted},
		{"healthy/oversize", nil,
			trace.Job{ID: 1, Size: tree.Nodes() + 1, Runtime: 10, Deadline: 1e6},
			engine.VerdictRejected, engine.StateRejected, engine.StateRejected},
		// The estimate (now) precedes the arrival; the job is judged from its
		// arrival.
		{"healthy/future-arrival", nil,
			trace.Job{ID: 1, Size: 4, Arrival: 100, Runtime: 10, Deadline: 110},
			engine.VerdictAccepted, engine.StateQueued, engine.StateCompleted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := newElasticEngine(t, core.NewAllocator(tree))
			if tc.fail != nil {
				if _, err := eng.Fail(*tc.fail); err != nil {
					t.Fatal(err)
				}
			}
			submitAll(t, eng, tc.job)
			st, _ := eng.Status(tc.job.ID)
			if st.Verdict != tc.wantVerdict || st.State != tc.wantState {
				t.Fatalf("at submit: verdict %q state %v, want %q %v", st.Verdict, st.State, tc.wantVerdict, tc.wantState)
			}
			if tc.fail != nil {
				drainEngine(eng) // arrives, does not fit, is held
				if st, _ := eng.Status(tc.job.ID); st.State != engine.StateQueued {
					t.Fatalf("on the degraded fabric: state %v, want queued (held)", st.State)
				}
				if err := eng.Recover(*tc.fail); err != nil {
					t.Fatal(err)
				}
			}
			drainEngine(eng)
			if st, _ := eng.Status(tc.job.ID); st.State != tc.wantFinal {
				t.Fatalf("final state %v, want %v", st.State, tc.wantFinal)
			}
		})
	}
}
