package engine_test

// Chaos/property test for the malleability layer: random interleavings of
// rigid and elastic submissions, event delivery, cancellations, failures
// (under FailShrink), and recoveries — across all six policies — must keep
// the allocation-state invariants green at every step, never run an elastic
// job outside its declared [MinNodes, MaxNodes] bounds, and, once the fabric
// heals and the engine drains, resolve every submission exactly once:
// completed, rejected (including submit-time deadline rejections), or
// cancelled — never lost, never duplicated, never killed.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestMalleabilityChaosProperty(t *testing.T) {
	for _, policy := range allPolicies {
		t.Run(policy, func(t *testing.T) {
			var moves int64
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					moves += runMalleabilityChaos(t, policy, seed)
				})
			}
			// The property suite is only meaningful if the elastic machinery
			// actually fires; across six seeds every policy must have
			// performed at least one shrink, grow, or preemption.
			if moves == 0 {
				t.Errorf("%s: no shrink/grow/preempt move across any seed — chaos never exercised the elastic paths", policy)
			}
		})
	}
}

// runMalleabilityChaos drives one 600-step random history and returns how
// many elastic moves (shrinks + grows + preemptions) the engine performed.
func runMalleabilityChaos(t *testing.T, policy string, seed int64) int64 {
	tree := topology.MustNew(8)
	eng, err := engine.New(engine.Config{
		Alloc:     newPolicy(t, policy, tree),
		Window:    10,
		OnFailure: engine.FailShrink,
		Elastic:   true,
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
		eng.VisitPlacements(func(j trace.Job, pl *topology.Placement) {
			if j.MinNodes > 0 && j.Size < j.MinNodes {
				t.Fatalf("step %d: job %d running at %d nodes, below MinNodes %d", step, j.ID, j.Size, j.MinNodes)
			}
			if j.MaxNodes > 0 && j.Size > j.MaxNodes {
				t.Fatalf("step %d: job %d running at %d nodes, above MaxNodes %d", step, j.ID, j.Size, j.MaxNodes)
			}
			if len(pl.Nodes) < j.Size {
				t.Fatalf("step %d: job %d placement holds %d nodes for size %d", step, j.ID, len(pl.Nodes), j.Size)
			}
		})
	}

	active := make([]bool, len(chaosSpecs))
	nextID := int64(1)
	submitted := map[int64]bool{}
	cancelled := map[int64]bool{}
	var known []int64
	submit := func(elastic bool) {
		var j trace.Job
		if elastic {
			size := 2 + rng.Intn(tree.Nodes()/4)
			j = trace.Job{ID: nextID, Size: size, Arrival: eng.Now(), Runtime: 1 + rng.Float64()*40}
			if rng.Intn(2) == 0 {
				j.MinNodes = 1 + rng.Intn(size)
			}
			if rng.Intn(2) == 0 {
				j.MaxNodes = size + rng.Intn(size+1)
				if j.MaxNodes > tree.Nodes() {
					j.MaxNodes = tree.Nodes()
				}
			}
			j.Priority = rng.Intn(3)
			if rng.Intn(3) == 0 {
				// Mostly feasible deadlines, occasionally provably-too-tight
				// ones to exercise the submit-time rejection verdict.
				j.Deadline = j.Arrival + j.Runtime*(0.4+rng.Float64()*4)
			}
		} else {
			size := 1 + rng.Intn(tree.Nodes()/3)
			if rng.Intn(8) == 0 {
				size = tree.Nodes() + 1 + rng.Intn(8)
			}
			j = trace.Job{ID: nextID, Size: size, Arrival: eng.Now(), Runtime: 1 + rng.Float64()*40}
		}
		if err := eng.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", j.ID, err)
		}
		submitted[nextID] = true
		known = append(known, nextID)
		nextID++
	}

	for step := 0; step < 600; step++ {
		switch rng.Intn(12) {
		case 0, 1, 2: // rigid submit; 1-in-8 is larger than the machine
			submit(false)
		case 3, 4: // elastic submit
			submit(true)
		case 5, 6, 7: // deliver the next event
			eng.Step()
		case 8: // let time pass
			eng.AdvanceTo(eng.Now() + rng.Float64()*15)
		case 9: // fail an inactive spec; the overlap rule makes success mandatory
			i := rng.Intn(len(chaosSpecs))
			if active[i] {
				break
			}
			if _, err := eng.Fail(chaosSpecs[i]); err != nil {
				t.Fatalf("step %d: fail %v: %v", step, chaosSpecs[i], err)
			}
			active[i] = true
		case 10: // recover an active spec
			i := rng.Intn(len(chaosSpecs))
			if !active[i] {
				break
			}
			if err := eng.Recover(chaosSpecs[i]); err != nil {
				t.Fatalf("step %d: recover %v: %v", step, chaosSpecs[i], err)
			}
			active[i] = false
		case 11: // cancel a random known job (error on a settled one is fine)
			if len(known) == 0 {
				break
			}
			id := known[rng.Intn(len(known))]
			if _, err := eng.Cancel(id); err == nil {
				cancelled[id] = true
			}
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
		want := 1
		if cancelled[id] {
			want = 0 // cancelled jobs settle in state, not in the ledger slices
		}
		if seen[id] != want {
			t.Errorf("job %d resolved %d times, want %d", id, seen[id], want)
		}
	}
	for id := range seen {
		if !submitted[id] {
			t.Errorf("job %d in accounting was never submitted", id)
		}
	}
	c := eng.Counts()
	if c.Killed != 0 {
		t.Fatalf("shrink policy killed %d jobs", c.Killed)
	}
	if c.Submitted != c.Completed+c.Rejected+c.Cancelled {
		t.Fatalf("counts %+v: %d submissions but %d completed + %d rejected + %d cancelled",
			c, c.Submitted, c.Completed, c.Rejected, c.Cancelled)
	}
	return c.Shrunk + c.Grown + c.Preempted
}
