package engine_test

// The incremental utilization integrals must agree with the reference
// integration in internal/metrics at every observable moment. A randomized
// submit/cancel/advance/fail/recover history is replayed and, after every
// operation, UtilizationTo and SteadyUtilization are checked against a fresh
// O(n) walk over the accounting ledger. This is what lets the snapshot
// publisher call them on every drain without quadratic cost.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

// referenceUtilizationTo recomputes UtilizationTo the slow way.
func referenceUtilizationTo(e *engine.Engine, t float64) float64 {
	acc := e.Accounting()
	return metrics.SeriesUtilization(acc.UtilSeries, acc.FirstArrival, t, e.TotalNodes())
}

// referenceSteadyUtilization recomputes SteadyUtilization the slow way,
// mirroring metrics.Utilization's SteadyEnd-with-LastEnd-fallback bounds.
func referenceSteadyUtilization(e *engine.Engine) float64 {
	acc := e.Accounting()
	start, end := acc.FirstArrival, acc.SteadyEnd
	if end <= start {
		end = acc.LastEnd
	}
	return metrics.SeriesUtilization(acc.UtilSeries, start, end, e.TotalNodes())
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func checkIntegrals(t *testing.T, e *engine.Engine, seed int64, step int) {
	t.Helper()
	// Probe at now and strictly after now; the latter exercises the
	// open-series extension of the last step value.
	for _, probe := range []float64{e.Now(), e.Now() + 17.5} {
		if got, want := e.UtilizationTo(probe), referenceUtilizationTo(e, probe); !closeEnough(got, want) {
			t.Fatalf("seed %d step %d: UtilizationTo(%g) = %v, reference %v", seed, step, probe, got, want)
		}
	}
	if got, want := e.SteadyUtilization(), referenceSteadyUtilization(e); !closeEnough(got, want) {
		t.Fatalf("seed %d step %d: SteadyUtilization = %v, reference %v", seed, step, got, want)
	}
}

func TestIncrementalUtilizationMatchesSeriesWalk(t *testing.T) {
	tree := topology.MustNew(4) // 16 nodes
	for seed := int64(1); seed <= 6; seed++ {
		e, err := engine.New(engine.Config{Alloc: core.NewAllocator(tree), History: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		now := 0.0
		id := int64(1)
		var known []int64
		var active *topology.Failure

		checkIntegrals(t, e, seed, -1) // empty engine: everything is 0

		for step := 0; step < 200; step++ {
			switch op := rng.Intn(12); {
			case op < 5:
				size := 1 + rng.Intn(tree.Nodes()-2)
				if rng.Intn(12) == 0 {
					size = tree.Nodes() + 1 // rejection path
				}
				j := trace.Job{
					ID:      id,
					Size:    size,
					Arrival: now + rng.Float64()*10,
					Runtime: 0.5 + rng.Float64()*20,
				}
				if err := e.Submit(j); err != nil {
					t.Fatalf("seed %d step %d: submit: %v", seed, step, err)
				}
				known = append(known, id)
				id++
			case op < 8:
				e.AdvanceTo(now + rng.Float64()*15)
				now = e.Now()
			case op < 9:
				e.Step()
				now = e.Now()
			case op < 10 && len(known) > 0:
				// Cancels hit both the queued and running LastEnd paths.
				e.Cancel(known[rng.Intn(len(known))])
			case op < 11 && active == nil:
				f := topology.LeafSwitchFailure(rng.Intn(tree.Leaves()))
				if _, err := e.Fail(f); err == nil {
					active = &f
				}
			case op < 12 && active != nil:
				if err := e.Recover(*active); err != nil {
					t.Fatalf("seed %d step %d: recover: %v", seed, step, err)
				}
				active = nil
			}
			checkIntegrals(t, e, seed, step)
		}

		// Drain and check the final steady-state figure against the offline
		// metric the report path uses.
		for {
			if _, ok := e.Step(); !ok {
				break
			}
			checkIntegrals(t, e, seed, 1000)
		}
		r := &sched.Result{SystemNodes: e.TotalNodes(), Accounting: e.Accounting()}
		if got, want := e.SteadyUtilization(), metrics.Utilization(r); !closeEnough(got, want) {
			t.Fatalf("seed %d: drained SteadyUtilization = %v, metrics.Utilization = %v", seed, got, want)
		}
	}
}
