// Package alloc defines the allocator interface shared by every scheduling
// scheme in the repository (Baseline, TA, LaaS, Jigsaw, LC+S). An allocator
// owns a topology.State and answers placement queries against it; the
// scheduler drives it from job arrival and completion events.
package alloc

import (
	"repro/internal/partition"
	"repro/internal/topology"
)

// Allocator is a job-placement policy bound to an allocation state.
//
// Implementations are deterministic: the same sequence of Allocate/Release
// calls yields the same placements. They are not safe for concurrent use.
type Allocator interface {
	// Name returns the scheme name used in reports ("Jigsaw", "LaaS", ...).
	Name() string
	// Allocate searches for a placement for size nodes, charges it against
	// the state, and returns it. It returns (nil, false) — with the state
	// unchanged — if no legal placement currently exists.
	Allocate(job topology.JobID, size int) (*topology.Placement, bool)
	// Release returns a placement's nodes and links to the state.
	Release(p *topology.Placement)
	// Mirror charges an externally-produced placement (typically one
	// applied to another allocator's state) against this allocator's
	// state. The scheduler uses it to replay placements on cloned
	// allocators during EASY reservation and backfill checks. The
	// placement's resources must be free here; Mirror panics otherwise.
	Mirror(p *topology.Placement)
	// FreeNodes returns the number of currently unallocated nodes.
	FreeNodes() int
	// State exposes the allocator's underlying allocation state, for
	// invariant auditing (topology.State.CheckInvariants) and differential
	// tests. Callers must not mutate it except through the allocator.
	State() *topology.State
	// Tree returns the fat-tree the allocator schedules onto.
	Tree() *topology.FatTree
	// Clone returns an independent deep copy (state included) used for
	// what-if analysis such as EASY reservation computation.
	Clone() Allocator
}

// TxnAllocator is the optional transaction extension of Allocator: what-if
// analysis runs directly on the live state inside an undo-journal
// transaction (topology.State Begin/Rollback/Commit) instead of on a deep
// clone, making each what-if O(resources touched) rather than O(tree).
//
// The usual misuse rules apply: transactions do not nest, and Rollback or
// Commit without Begin panics. Schedulers must leave the state outside any
// transaction before returning control to their caller.
//
// Allocators whose Allocate/Release mutate only their topology.State get the
// extension for free by embedding Base; allocators carrying auxiliary mutable
// placement state must either journal it themselves or not implement
// TxnAllocator, in which case schedulers fall back to Clone.
type TxnAllocator interface {
	Allocator
	// Begin starts recording mutations for rollback.
	Begin()
	// Rollback undoes every mutation since Begin and ends the transaction.
	Rollback()
	// Commit keeps every mutation since Begin and ends the transaction.
	Commit()
}

// PartitionFinder is the optional extension for allocators whose placements
// are structured Section 3.2 partitions (the Jigsaw family: core, Jigsaw+S,
// LC+S). FindJobPartition runs the allocator's search for the job at the
// given size WITHOUT charging the result, so a scheduler can inspect — and
// independently re-verify with partition.Verify — the exact shape a
// subsequent same-state Allocate would commit. The elastic engine uses it as
// the legality guard on shrink/grow moves: a resize is only committed when
// the found partition passes verification. Implementations are deterministic,
// so FindJobPartition followed by Allocate against an unchanged state charges
// the very shape that was verified.
type PartitionFinder interface {
	Allocator
	// FindJobPartition searches for a legal partition for the job at the
	// given size without charging it. The returned partition is an
	// independent copy the caller may retain.
	FindJobPartition(job topology.JobID, size int) (*partition.Partition, bool)
}

// MonotoneFeasibility is the optional declaration that an allocator's
// feasibility is monotone in the job size: if Allocate fails for size N
// against some state, it fails for every size greater than N against the
// same state. Node-count-only policies satisfy it — Baseline (feasible iff
// size <= free nodes) and LaaS (feasible iff the rounded-up whole-leaf count
// is placeable; dropping leaves from any legal whole-leaf placement yields a
// legal smaller one). Shape-sensitive policies must NOT declare it: under
// Jigsaw or TA a small job can fail on link or single-leaf constraints while
// a larger whole-leaf job still fits, so only exact-size negative caching is
// sound for them (see DESIGN.md §11).
//
// Schedulers use the declaration to threshold-prune: once size N fails, every
// queued candidate of size >= N is skipped until the state changes.
type MonotoneFeasibility interface {
	Allocator
	// MonotoneFeasibility is a marker; implementations do nothing.
	MonotoneFeasibility()
}

// FeasibilityClasser is the optional refinement for allocators whose
// Allocate verdict depends on the requesting job beyond its size. The
// link-sharing policies (LC+S, Jigsaw+S) derive a per-job bandwidth demand
// from the job ID, so two same-size jobs can receive different verdicts
// against the same state; negative feasibility caches must key on
// (size, class), not size alone. Allocators without this extension promise
// that Allocate feasibility is a function of (state, size) only.
type FeasibilityClasser interface {
	Allocator
	// FeasibilityClass returns the discriminator that, together with the
	// size, determines the job's Allocate verdict against a fixed state.
	FeasibilityClass(job topology.JobID) int32
}
