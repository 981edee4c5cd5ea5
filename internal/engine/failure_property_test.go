package engine_test

// Property test for degraded-fabric scheduling: random interleavings of
// submissions, event delivery, failures, and recoveries must keep the
// allocation-state invariants green at every step, and once the fabric heals
// and the engine drains, no job may be lost or duplicated — every submission
// ends up completed or rejected, exactly once, requeued jobs included.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// chaosSpecs is the pool the chaos layers (this test, the malleability chaos
// test and FuzzShrinkGrow) draw failures from. The specs overlap on purpose —
// a node inside a failed leaf switch, a spine uplink inside a failed L2
// switch, an L2 switch and a spine switch sharing an uplink, an L2 switch
// crossing a leaf switch and a leaf uplink — because the overlap rule
// (topology/failure.go) makes every Fail of an inactive spec and every
// Recover of an active one succeed whatever else is active, in any order.
// Laid out for a radix-8 tree: 4 leaves/pod, 4 nodes/leaf, 4 L2s/pod,
// 4 spines/group.
var chaosSpecs = []topology.Failure{
	topology.LeafSwitchFailure(0),        // nodes 0-3, leaf uplinks (0,*)
	topology.NodeFailure(2),              // inside leaf switch 0
	topology.NodeFailure(4),              // leaf 1
	topology.NodeFailure(13),             // leaf 3
	topology.LeafUplinkFailure(2, 1),     // leaf 2 -> L2 1
	topology.SpineUplinkFailure(1, 0, 2), // pod 1, L2 0
	topology.L2SwitchFailure(2, 3),       // pod 2: leaf uplinks (*,3), spine uplinks (2,3,*)
	topology.SpineUplinkFailure(2, 3, 1), // inside L2 switch 2/3
	topology.SpineSwitchFailure(1, 1),    // spine uplinks (*,1,1)
	topology.L2SwitchFailure(0, 1),       // pod 0: shares (0,1,1) with spine switch 1/1, (0,1) with leaf switch 0, and covers leaf uplink (2,1)
}

func TestFailureChaosProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailureChaos(t, seed)
		})
	}
}

func runFailureChaos(t *testing.T, seed int64) {
	tree := topology.MustNew(8)
	eng, err := engine.New(engine.Config{
		Alloc:     core.NewAllocator(tree),
		Window:    10,
		OnFailure: engine.FailRequeue,
		History:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	st := eng.Config().Alloc.State()
	audit := func(step int) {
		t.Helper()
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	active := make([]bool, len(chaosSpecs))
	nextID := int64(1)
	submitted := map[int64]bool{}
	for step := 0; step < 600; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // submit; 1-in-8 is larger than the machine
			size := 1 + rng.Intn(tree.Nodes()/3)
			if rng.Intn(8) == 0 {
				size = tree.Nodes() + 1 + rng.Intn(8)
			}
			j := trace.Job{ID: nextID, Size: size, Arrival: eng.Now(), Runtime: 1 + rng.Float64()*40}
			if err := eng.Submit(j); err != nil {
				t.Fatalf("step %d: submit: %v", step, err)
			}
			submitted[nextID] = true
			nextID++
		case 4, 5, 6: // deliver the next event
			eng.Step()
		case 7: // let time pass
			eng.AdvanceTo(eng.Now() + rng.Float64()*15)
		case 8: // fail an inactive spec; the overlap rule makes success mandatory
			i := rng.Intn(len(chaosSpecs))
			if active[i] {
				break
			}
			if _, err := eng.Fail(chaosSpecs[i]); err != nil {
				t.Fatalf("step %d: fail %v: %v", step, chaosSpecs[i], err)
			}
			active[i] = true
		case 9: // recover an active spec
			i := rng.Intn(len(chaosSpecs))
			if !active[i] {
				break
			}
			if err := eng.Recover(chaosSpecs[i]); err != nil {
				t.Fatalf("step %d: recover %v: %v", step, chaosSpecs[i], err)
			}
			active[i] = false
		}
		audit(step)
	}

	// Heal the fabric and drain: every submission must resolve exactly once.
	for i, spec := range chaosSpecs {
		if active[i] {
			if err := eng.Recover(spec); err != nil {
				t.Fatalf("final recover %v: %v", spec, err)
			}
		}
	}
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	audit(-1)
	if eng.Degraded() {
		t.Fatal("engine degraded after recovering every spec")
	}
	snap := eng.Snapshot()
	if snap.QueueDepth != 0 || snap.RunningJobs != 0 {
		t.Fatalf("drain left %d queued, %d running", snap.QueueDepth, snap.RunningJobs)
	}
	acc := eng.Accounting()
	seen := map[int64]int{}
	for _, r := range acc.Records {
		seen[r.Job.ID]++
	}
	for _, j := range acc.Rejected {
		seen[j.ID]++
	}
	for _, j := range acc.Killed {
		seen[j.ID]++
	}
	for id := range submitted {
		if seen[id] != 1 {
			t.Errorf("job %d resolved %d times", id, seen[id])
		}
	}
	for id := range seen {
		if !submitted[id] {
			t.Errorf("job %d in accounting was never submitted", id)
		}
	}
	c := eng.Counts()
	if c.Killed != 0 {
		t.Fatalf("requeue policy killed %d jobs", c.Killed)
	}
	if c.Submitted != c.Completed+c.Rejected {
		t.Fatalf("counts %+v: %d submissions but %d completed + %d rejected",
			c, c.Submitted, c.Completed, c.Rejected)
	}
}
