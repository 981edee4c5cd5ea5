// Package jigsaw is a library reproduction of "Jigsaw: A High-Utilization,
// Interference-Free Job Scheduler for Fat-Tree Clusters" (Smith & Lowenthal,
// HPDC 2021).
//
// It provides:
//
//   - full three-level fat-tree topologies built from uniform-radix switches
//     (NewFatTree);
//   - five job-placement schemes (NewAllocator): the paper's Jigsaw
//     algorithm, the prior job-isolating approaches LaaS and TA, the
//     theoretical bounding scheme LC+S, and a traditional Baseline;
//   - a discrete-event scheduling simulator with EASY backfilling
//     (NewScheduler, Scheduler.Run);
//   - the paper's nine evaluation workloads (Traces) and six
//     performance-improvement scenarios (Scenarios);
//   - routing: D-mod-k, Jigsaw's partition-confined wraparound routing, and
//     a constructive prover that legal partitions are rearrangeable
//     non-blocking (RoutePermutation).
//
// The cmd/experiments tool regenerates every table and figure of the paper's
// evaluation; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// measured-versus-published results.
package jigsaw

import (
	"slices"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Core topology and allocation types.
type (
	// FatTree is a full three-level fat-tree built from uniform-radix
	// switches.
	FatTree = topology.FatTree
	// NodeID identifies a compute node.
	NodeID = topology.NodeID
	// JobID identifies a job.
	JobID = topology.JobID
	// Placement is the set of nodes and links charged to a job.
	Placement = topology.Placement
	// Allocator is a job-placement policy bound to an allocation state.
	Allocator = alloc.Allocator
	// Partition is a structured allocation satisfying the paper's formal
	// conditions (Section 3.2).
	Partition = partition.Partition
)

// Workload and simulation types.
type (
	// Job is one entry of a job-queue trace.
	Job = trace.Job
	// Trace is a named job queue.
	Trace = trace.Trace
	// Scenario assigns isolated-execution speed-ups to jobs.
	Scenario = scenario.Scenario
	// Scheduler runs one trace against one allocator under one scenario.
	Scheduler = sched.Scheduler
	// Result aggregates one simulation run.
	Result = sched.Result
	// Record is the outcome of one job.
	Record = engine.Record
)

// Online scheduling types (the jigsawd daemon's core; see internal/engine).
type (
	// Engine is the incremental, event-driven scheduling engine: the same
	// FIFO + EASY-backfill core as Scheduler, driven by Submit/Cancel/
	// Step/AdvanceTo instead of a batch run loop.
	Engine = engine.Engine
	// EngineConfig selects the policy an Engine runs.
	EngineConfig = engine.Config
	// JobStatus is a point-in-time view of one submitted job.
	JobStatus = engine.JobStatus
	// EngineSnapshot is a consistent view of an engine for observers.
	EngineSnapshot = engine.Snapshot
)

// DefaultWindow is the paper's EASY backfill lookahead (Section 5.4.3).
const DefaultWindow = engine.DefaultWindow

// Routing types.
type (
	// Route is the path of one flow.
	Route = routing.Route
	// PartitionRouter routes packets inside one partition using Jigsaw's
	// wraparound mapping of D-mod-k (Figure 5).
	PartitionRouter = routing.PartitionRouter
)

// Scheme names accepted by NewAllocator, in the paper's legend order, plus
// the Jigsaw+S extension (the link-sharing relaxation Section 5.2.3 notes
// can be combined with Jigsaw).
const (
	SchemeBaseline = "Baseline"
	SchemeLCS      = "LC+S"
	SchemeJigsaw   = "Jigsaw"
	SchemeLaaS     = "LaaS"
	SchemeTA       = "TA"
	SchemeJigsawS  = "Jigsaw+S"
)

// Schemes lists the paper's five schemes (Figure 6 order).
func Schemes() []string { return slices.Clone(experiments.Schemes) }

// NewFatTree returns the full three-level fat-tree built from switches of
// the given radix (radix 16 = 1024 nodes, 18 = 1458, 22 = 2662, 28 = 5488).
func NewFatTree(radix int) (*FatTree, error) { return topology.New(radix) }

// NewAllocator returns a fresh allocator implementing the named scheme on a
// pristine tree.
func NewAllocator(scheme string, tree *FatTree) (Allocator, error) {
	return experiments.NewAllocator(scheme, tree)
}

// NewJigsawAllocator returns the paper's Jigsaw allocator with its concrete
// type, which additionally exposes FindPartition for inspecting allocations
// without committing them.
func NewJigsawAllocator(tree *FatTree) *core.Allocator { return core.NewAllocator(tree) }

// NewScheduler returns an EASY-backfilling scheduler over the allocator.
// Speed-ups from the scenario apply unless the allocator is the Baseline.
func NewScheduler(a Allocator, sc Scenario) *Scheduler { return sched.New(a, sc) }

// NewEngine returns an incremental scheduling engine; Scheduler.Run is
// equivalent to submitting a whole trace to one and stepping it dry. The
// engine is not safe for concurrent use — the jigsawd daemon
// (internal/server) serializes access onto a single goroutine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// Scenarios returns the paper's six performance scenarios in figure order:
// None, 5%, 10%, 20%, V2, Random.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioByName finds a scenario by its figure label.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// Traces returns the paper's nine evaluation workloads (Table 1). scale in
// (0, 1] shrinks job counts; 1.0 reproduces the paper's counts.
func Traces(scale float64) []*Trace { return trace.All(scale) }

// VerifyPartition checks a partition against the formal conditions of
// Section 3.2 for the given tree.
func VerifyPartition(p *Partition, t *FatTree) error { return p.Verify(t) }

// RoutePermutation routes an arbitrary permutation of traffic among a legal
// partition's nodes with at most one flow per directed link, using only the
// partition's links — the constructive form of the paper's Appendix A
// sufficiency proof. perm maps partition node index to partition node index.
func RoutePermutation(t *FatTree, p *Partition, perm []int) ([]Route, error) {
	return routing.RoutePermutation(t, p, perm)
}

// VerifyRoutes checks that routes are contention-free and confined to the
// partition.
func VerifyRoutes(t *FatTree, p *Partition, routes []Route) error {
	return routing.VerifyRoutes(t, p, routes)
}

// NewPartitionRouter builds Jigsaw's wraparound routing for a partition.
func NewPartitionRouter(t *FatTree, p *Partition) *PartitionRouter {
	return routing.NewPartitionRouter(t, p)
}

// DModK returns the D-mod-k static route between two nodes, which is unaware
// of partitions (Figure 5, left).
func DModK(t *FatTree, src, dst NodeID) Route { return routing.DModK(t, src, dst) }

// Evaluation metrics (Section 5).

// Utilization is the steady-state average system utilization of a run.
func Utilization(r *Result) float64 { return metrics.Utilization(r) }

// Makespan is the first-arrival-to-last-completion time of a run.
func Makespan(r *Result) float64 { return metrics.Makespan(r) }

// MeanTurnaround averages turnaround over jobs larger than minSize nodes.
func MeanTurnaround(r *Result, minSize int) float64 { return metrics.MeanTurnaround(r, minSize) }

// AvgSchedTime is the average wall-clock scheduling time per job.
func AvgSchedTime(r *Result) float64 { return metrics.AvgSchedTime(r) }
