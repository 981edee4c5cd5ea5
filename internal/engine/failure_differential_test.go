package engine_test

// Degraded-fabric acceptance across every policy and backfill mode: the same
// deterministic job history runs with a fail/recover trace injected, and for
// all 12 combinations the engine must requeue the hit jobs, keep the state
// invariants green at every event (which is what guarantees nothing is ever
// placed on a failed resource — failed nodes are owned by the sentinel and
// failed links hold zero residual), and drain every submission to exactly
// one completion or rejection once the fabric heals.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/failtrace"
	"repro/internal/topology"
	"repro/internal/trace"
)

const degradedTrace = `
40  fail leaf-switch 1
60  fail node 40
60  fail spine-uplink 2 1 3
90  recover leaf-switch 1
120 fail l2-switch 3 2
200 recover node 40
200 recover spine-uplink 2 1 3
230 recover l2-switch 3 2
`

func TestDegradedEnginesAcrossPolicies(t *testing.T) {
	tree := topology.MustNew(8)
	events, err := failtrace.Parse(strings.NewReader(degradedTrace))
	if err != nil {
		t.Fatal(err)
	}
	// One deterministic job history for every combination, dense enough that
	// the machine is busy when every failure lands.
	rng := rand.New(rand.NewSource(99))
	var jobs []trace.Job
	arrival := 0.0
	for id := int64(1); id <= 150; id++ {
		arrival += rng.Float64() * 3.5
		jobs = append(jobs, trace.Job{
			ID: id, Size: 1 + rng.Intn(tree.Nodes()/4),
			Arrival: arrival, Runtime: 5 + rng.Float64()*50,
		})
	}
	for _, policy := range allPolicies {
		for _, v := range engineVariants {
			t.Run(policy+"/"+v.name, func(t *testing.T) {
				a := newPolicy(t, policy, tree)
				eng, err := engine.New(engine.Config{
					Alloc:           a,
					DisableBackfill: v.disableBackfill,
					Window:          10,
					OnFailure:       engine.FailRequeue,
					History:         true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range jobs {
					if err := eng.Submit(j); err != nil {
						t.Fatal(err)
					}
				}
				st, err := failtrace.Replay(eng, events)
				if err != nil {
					t.Fatal(err)
				}
				if st.Affected == 0 || st.Requeued != st.Affected {
					t.Fatalf("replay stats %+v: the trace must hit running jobs and requeue them", st)
				}
				for {
					if _, ok := eng.Step(); !ok {
						break
					}
					if err := a.State().CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
				if eng.Degraded() {
					t.Fatal("engine degraded after the trace recovered everything")
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
				for _, j := range jobs {
					if seen[j.ID] != 1 {
						t.Errorf("job %d resolved %d times", j.ID, seen[j.ID])
					}
				}
				c := eng.Counts()
				if c.Submitted != c.Completed+c.Rejected || c.Killed != 0 {
					t.Fatalf("counts %+v", c)
				}
				if c.Requeued != int64(st.Requeued) {
					t.Fatalf("counter says %d requeued, replay saw %d", c.Requeued, st.Requeued)
				}
			})
		}
	}
}
