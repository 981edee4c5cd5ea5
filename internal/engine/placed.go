package engine

// StartPlaced is the cross-shard admission path: the gateway coordinator
// composes a legal multi-pod placement (internal/shard) against several
// frozen engines and charges each engine its slice directly, bypassing the
// queue and the allocator's own search.

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/trace"
)

// StartPlaced registers job j as running right now on an externally-produced
// placement slice. The placement's resources must be free on this engine's
// state (alloc.Allocator.Mirror panics otherwise) and j.Size must be the
// node count of this slice, not of the whole cross-shard job — the engine's
// used-node gauge and utilization series count only what this shard hosts.
//
// eff is the effective runtime, computed once by the coordinator so every
// slice of a cross-shard job completes at the same instant regardless of
// per-engine scenario configuration. The job completes through the ordinary
// event path and is cancellable/failable like any scheduled job.
func (e *Engine) StartPlaced(j trace.Job, eff float64, pl *topology.Placement) (JobStatus, error) {
	if pl == nil {
		return JobStatus{}, fmt.Errorf("engine: StartPlaced with nil placement")
	}
	if _, dup := e.Status(j.ID); dup {
		return JobStatus{}, fmt.Errorf("engine: duplicate job id %d", j.ID)
	}
	if eff < 0 {
		return JobStatus{}, fmt.Errorf("engine: negative runtime %g", eff)
	}
	// The job starts now; an arrival recorded after this engine's clock
	// (possible when lanes advanced unevenly before the freeze) is clamped
	// so waits are never negative.
	if j.Arrival > e.now {
		j.Arrival = e.now
	}
	e.cfg.Alloc.Mirror(pl)
	it := &jobItem{j: j, eff: eff, state: StateQueued, placed: true}
	e.jobs[j.ID] = it
	if !e.haveArrival || j.Arrival < e.acc.FirstArrival {
		e.acc.FirstArrival = j.Arrival
		e.haveArrival = true
	}
	e.counts.Submitted++
	e.start(it, pl, e.now)
	// The mirrored placement consumed resources the cached head reservation
	// never saw its what-if replay; force the next schedule pass to rebuild
	// it. (The head-blocked verdict itself stays valid: consuming resources
	// cannot unblock the head.)
	e.cancelEpoch++
	e.observe(e.now)
	return it.status(), nil
}
