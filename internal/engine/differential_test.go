package engine_test

// Differential pinning for the two what-if mechanisms (Engine.whatIf): every
// policy is driven through an identical randomized submit/cancel/step history
// twice — once on the real allocator (FIFO reservations replay on the live
// state under an undo journal, with the feasibility cache) and
// once on a wrapper that hides the transaction methods and the cache (every
// what-if replays on a deep clone) — and every observable output must match
// bit-for-bit: schedules, utilization series, rejection sets, and counts.
// The EASY variant replays onto its cached clone in both engines, so it pins
// that the cancellation-epoch reservation cache and the feasibility cache
// change no schedule.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jigsaws"
	"repro/internal/laas"
	"repro/internal/lcs"
	"repro/internal/ta"
	"repro/internal/topology"
	"repro/internal/trace"
)

// cloneOnly shows the engine a bare alloc.Allocator, so whatIf hands out
// clones. Embedding the interface (not the concrete type) is what drops the
// Begin/Rollback/Commit methods — and with them every other optional
// extension (feasibility cache, partition finder).
type cloneOnly struct{ alloc.Allocator }

func (c cloneOnly) Clone() alloc.Allocator { return cloneOnly{c.Allocator.Clone()} }

func newPolicy(t *testing.T, name string, tree *topology.FatTree) alloc.Allocator {
	t.Helper()
	switch name {
	case "Baseline":
		return baseline.NewAllocator(tree)
	case "Jigsaw":
		return core.NewAllocator(tree)
	case "Jigsaw+S":
		return jigsaws.NewAllocator(tree)
	case "LaaS":
		return laas.NewAllocator(tree)
	case "TA":
		return ta.NewAllocator(tree)
	case "LC+S":
		return lcs.NewAllocator(tree)
	}
	t.Fatalf("unknown policy %q", name)
	return nil
}

var allPolicies = []string{"Baseline", "Jigsaw", "Jigsaw+S", "LaaS", "TA", "LC+S"}

// engineVariants are the scheduling modes the what-if path serves: EASY
// (backfill exercises the displacement check) and pure FIFO (reservation
// only for rejection detection).
var engineVariants = []struct {
	name            string
	disableBackfill bool
}{
	{"easy", false},
	{"fifo", true},
}

func sameSnapshots(a, b engine.Snapshot) bool {
	return a.Now == b.Now && a.UsedNodes == b.UsedNodes && a.FreeNodes == b.FreeNodes &&
		a.QueueDepth == b.QueueDepth && a.RunningJobs == b.RunningJobs &&
		a.PendingEvents == b.PendingEvents && a.Counts == b.Counts &&
		reflect.DeepEqual(a.Queue, b.Queue) && reflect.DeepEqual(a.Running, b.Running)
}

func compareAccounting(t *testing.T, policy, variant string, seed int64, txn, cl engine.Accounting) {
	t.Helper()
	if !reflect.DeepEqual(txn.Records, cl.Records) {
		t.Fatalf("%s/%s seed %d: completion records diverge", policy, variant, seed)
	}
	if !reflect.DeepEqual(txn.Rejected, cl.Rejected) {
		t.Fatalf("%s/%s seed %d: rejection sets diverge", policy, variant, seed)
	}
	if !reflect.DeepEqual(txn.UtilSeries, cl.UtilSeries) {
		t.Fatalf("%s/%s seed %d: utilization series diverge", policy, variant, seed)
	}
	if !reflect.DeepEqual(txn.InstSamples, cl.InstSamples) {
		t.Fatalf("%s/%s seed %d: instantaneous samples diverge", policy, variant, seed)
	}
	if txn.FirstArrival != cl.FirstArrival || txn.LastEnd != cl.LastEnd || txn.SteadyEnd != cl.SteadyEnd {
		t.Fatalf("%s/%s seed %d: run bounds diverge", policy, variant, seed)
	}
	if txn.AllocCalls != cl.AllocCalls {
		t.Fatalf("%s/%s seed %d: live Allocate call counts diverge (%d vs %d)",
			policy, variant, seed, txn.AllocCalls, cl.AllocCalls)
	}
}

// TestTxnEngineMatchesCloneEngine is the randomized differential test: the
// transaction-mode engine must produce the same schedule, event for event,
// as the clone-mode engine across all six policies and all backfill modes.
func TestTxnEngineMatchesCloneEngine(t *testing.T) {
	tree := topology.MustNew(8) // 256 nodes
	for _, policy := range allPolicies {
		for _, v := range engineVariants {
			t.Run(policy+"/"+v.name, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					runDifferentialHistory(t, policy, v.name, seed, tree, v.disableBackfill)
				}
			})
		}
	}
}

func runDifferentialHistory(t *testing.T, policy, variant string, seed int64, tree *topology.FatTree, disableBackfill bool) {
	t.Helper()
	at := newPolicy(t, policy, tree)
	if _, ok := at.(alloc.TxnAllocator); !ok {
		t.Fatalf("%s does not implement TxnAllocator", policy)
	}
	mk := func(a alloc.Allocator) *engine.Engine {
		eng, err := engine.New(engine.Config{
			Alloc:           a,
			DisableBackfill: disableBackfill,
			Window:          10,
			History:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	et := mk(at)                                    // transaction mode
	ec := mk(cloneOnly{newPolicy(t, policy, tree)}) // clone mode
	drivePair(t, policy, variant, seed, tree, et, ec, at)
}

// drivePair pushes the same randomized submit/cancel/step history through two
// engines that must behave identically, comparing snapshots after every
// operation and full accounting ledgers after the drain. live, when non-nil,
// has its state invariants checked after every step.
func drivePair(t *testing.T, policy, variant string, seed int64, tree *topology.FatTree, et, ec *engine.Engine, live alloc.Allocator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := 0.0
	id := int64(1)
	var known []int64

	submit := func() {
		size := 1 + rng.Intn(2*tree.Radix)
		switch rng.Intn(10) {
		case 0:
			// Near-machine blocker: parks at the head and forces the
			// reservation + displacement-check machinery.
			size = tree.Nodes() - rng.Intn(tree.Radix)
		case 1:
			// Impossible job: exercises the rejection path.
			size = tree.Nodes() + 1 + rng.Intn(8)
		}
		j := trace.Job{
			ID:      id,
			Size:    size,
			Arrival: now + rng.Float64()*30,
			Runtime: 1 + rng.Float64()*90,
		}
		errT := et.Submit(j)
		errC := ec.Submit(j)
		if (errT == nil) != (errC == nil) {
			t.Fatalf("%s/%s seed %d: submit divergence for job %d", policy, variant, seed, j.ID)
		}
		known = append(known, id)
		id++
	}

	for step := 0; step < 160; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			submit()
		case op < 6:
			for n := 0; n < 1+rng.Intn(4); n++ {
				submit()
			}
		case op < 8:
			_, okT := et.Step()
			_, okC := ec.Step()
			if okT != okC {
				t.Fatalf("%s/%s seed %d step %d: Step availability diverges", policy, variant, seed, step)
			}
			now = et.Now()
		case op < 9:
			dt := rng.Float64() * 40
			nT := et.AdvanceTo(now + dt)
			nC := ec.AdvanceTo(now + dt)
			if nT != nC {
				t.Fatalf("%s/%s seed %d step %d: AdvanceTo step counts diverge (%d vs %d)", policy, variant, seed, step, nT, nC)
			}
			now = et.Now()
		default:
			if len(known) == 0 {
				continue
			}
			cid := known[rng.Intn(len(known))]
			stT, errT := et.Cancel(cid)
			stC, errC := ec.Cancel(cid)
			if (errT == nil) != (errC == nil) || !reflect.DeepEqual(stT, stC) {
				t.Fatalf("%s/%s seed %d step %d: cancel divergence for job %d", policy, variant, seed, step, cid)
			}
		}
		if sT, sC := et.Snapshot(), ec.Snapshot(); !sameSnapshots(sT, sC) {
			t.Fatalf("%s/%s seed %d step %d: snapshots diverge\ntxn:   %+v\nclone: %+v", policy, variant, seed, step, sT, sC)
		}
		if live != nil {
			if err := live.State().CheckInvariants(); err != nil {
				t.Fatalf("%s/%s seed %d step %d: live state invariants after txn what-ifs: %v", policy, variant, seed, step, err)
			}
		}
	}

	drainPair(t, policy, variant, seed, et, ec)
}

// drainPair steps both engines dry in lockstep and compares the drained
// snapshots and the complete accounting ledgers.
func drainPair(t *testing.T, policy, variant string, seed int64, et, ec *engine.Engine) {
	t.Helper()
	for {
		_, okT := et.Step()
		_, okC := ec.Step()
		if okT != okC {
			t.Fatalf("%s/%s seed %d: drain step divergence", policy, variant, seed)
		}
		if !okT {
			break
		}
	}
	if !sameSnapshots(et.Snapshot(), ec.Snapshot()) {
		t.Fatalf("%s/%s seed %d: drained snapshots diverge", policy, variant, seed)
	}
	compareAccounting(t, policy, variant, seed, et.Accounting(), ec.Accounting())
}
