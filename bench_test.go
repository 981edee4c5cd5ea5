package jigsaw

// The benchmarks below regenerate the paper's evaluation artifacts — one
// benchmark per table and figure (see DESIGN.md's experiment index) — plus
// the ablations called out in DESIGN.md and micro-benchmarks of the
// allocators themselves. The table/figure benchmarks run the same code as
// cmd/experiments at a reduced trace scale so `go test -bench=.` finishes in
// minutes; utilization-style outcomes are attached with b.ReportMetric.

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

// benchScale keeps bench iterations tractable; cmd/experiments raises it.
const benchScale = 0.01

// BenchmarkTable1TraceGen regenerates Table 1's nine traces.
func BenchmarkTable1TraceGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts := trace.All(0.1)
		if len(ts) != 9 {
			b.Fatal("expected nine traces")
		}
	}
}

// benchReport regenerates one experiment the way cmd/experiments -csv does
// and returns its observations, header first.
func benchReport(b *testing.B, cfg experiments.Config, name string) [][]string {
	b.Helper()
	var buf bytes.Buffer
	cfg.Scale, cfg.Out = benchScale, &buf
	if err := experiments.Report(cfg, name, true); err != nil {
		b.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// benchObs returns the values of the first observation whose leading
// fields are keys.
func benchObs(b *testing.B, rows [][]string, keys ...string) []float64 {
	b.Helper()
	for _, r := range rows[1:] {
		if slices.Equal(r[:len(keys)], keys) {
			var vs []float64
			for _, f := range r[len(keys):] {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					b.Fatal(err)
				}
				vs = append(vs, v)
			}
			return vs
		}
	}
	b.Fatalf("no observation %v", keys)
	return nil
}

// BenchmarkFigure6Utilization regenerates Figure 6 (average system
// utilization, all traces x all schemes) and reports Jigsaw's mean
// utilization across traces.
func BenchmarkFigure6Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchReport(b, experiments.Config{}, "fig6")
		sum, n := 0.0, 0
		for _, r := range rows[1:] {
			if r[1] == "Jigsaw" {
				sum += benchObs(b, rows, r[0], "Jigsaw")[0]
				n++
			}
		}
		b.ReportMetric(100*sum/float64(n), "jigsaw-util-%")
	}
}

// BenchmarkTable2Instantaneous regenerates Table 2 (instantaneous
// utilization frequencies on Thunder).
func BenchmarkTable2Instantaneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := benchReport(b, experiments.Config{}, "table2"); len(rows) != 1+3*6 {
			b.Fatal("expected three schemes x six buckets")
		}
	}
}

// BenchmarkFigure7Turnaround regenerates Figure 7 (normalized turnaround,
// Aug-Cab and Oct-Cab) and reports Jigsaw's all-jobs ratio on Aug-Cab under
// the 10% scenario.
func BenchmarkFigure7Turnaround(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchReport(b, experiments.Config{}, "fig7")
		b.ReportMetric(benchObs(b, rows, "Aug-Cab", "10%", "Jigsaw")[0], "jigsaw-10%-norm-turnaround")
	}
}

// BenchmarkFigure8Makespan regenerates Figure 8 (normalized makespans,
// Thunder and Atlas) and reports Jigsaw's ratio on Thunder under the 10%
// scenario.
func BenchmarkFigure8Makespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchReport(b, experiments.Config{}, "fig8")
		b.ReportMetric(benchObs(b, rows, "Thunder", "10%", "Jigsaw")[0], "jigsaw-10%-norm-makespan")
	}
}

// BenchmarkTable3SchedulingTime regenerates Table 3 (average scheduling time
// per job) and reports Jigsaw's time on the largest cluster in
// microseconds. Cells run one at a time, as Table 3's timings need.
func BenchmarkTable3SchedulingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchReport(b, experiments.Config{MeasureTime: true, Workers: 1}, "table3")
		b.ReportMetric(1e6*benchObs(b, rows, "Synth-28", "Jigsaw")[0], "jigsaw-synth28-us/job")
	}
}

// allocBench drives one allocator through a steady allocate/release churn at
// ~90% occupancy, the regime that matters for scheduling time.
func allocBench(b *testing.B, scheme string, radix int) {
	tree := topology.MustNew(radix)
	a, err := NewAllocator(scheme, tree)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var live []*Placement
	id := JobID(1)
	// Fill towards ~90% occupancy. The attempt bound matters for the
	// link-sharing schemes, whose links can exhaust before nodes do.
	for tries := 0; a.FreeNodes() > tree.Nodes()/10 && tries < 5000; tries++ {
		size := 1 + rng.Intn(2*radix)
		if pl, ok := a.Allocate(id, size); ok {
			live = append(live, pl)
		}
		id++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(live))
		released := live[j]
		a.Release(released)
		size := 1 + rng.Intn(2*radix)
		if pl, ok := a.Allocate(id, size); ok {
			live[j] = pl
		} else {
			// Restore the released placement so occupancy holds.
			a.Mirror(released)
		}
		id++
	}
}

func BenchmarkAllocateJigsaw1024(b *testing.B)   { allocBench(b, SchemeJigsaw, 16) }
func BenchmarkAllocateJigsaw5488(b *testing.B)   { allocBench(b, SchemeJigsaw, 28) }
func BenchmarkAllocateLaaS1024(b *testing.B)     { allocBench(b, SchemeLaaS, 16) }
func BenchmarkAllocateTA1024(b *testing.B)       { allocBench(b, SchemeTA, 16) }
func BenchmarkAllocateLCS1024(b *testing.B)      { allocBench(b, SchemeLCS, 16) }
func BenchmarkAllocateBaseline1024(b *testing.B) { allocBench(b, SchemeBaseline, 16) }

// BenchmarkEngineSubmitThroughput measures the online engine's sustained
// job-intake rate (Submit + AdvanceTo, i.e. the work jigsawd does per
// request) on a 1024-node tree under the Jigsaw policy at ~90% offered load.
func BenchmarkEngineSubmitThroughput(b *testing.B) {
	tree := topology.MustNew(16) // 1024 nodes
	eng, err := NewEngine(EngineConfig{Alloc: core.NewAllocator(tree)})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// Mean job ≈ 12.5 nodes x 300 s over a 4 s interarrival ≈ 0.92 of the
	// machine, so the queue stays busy without growing unboundedly.
	const interarrival = 4.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrival := float64(i) * interarrival
		eng.AdvanceTo(arrival)
		j := Job{
			ID:      int64(i + 1),
			Size:    1 + rng.Intn(24),
			Arrival: arrival,
			Runtime: 60 + rng.Float64()*480,
		}
		if err := eng.Submit(j); err != nil {
			b.Fatal(err)
		}
	}
	// Drain so every iteration pays its completion events too.
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkEngineBackfillHeavy measures the EASY what-if path directly: a
// near-machine-sized job blocks the head of the queue every 25 submissions,
// so a deep backlog of small jobs is admitted through reservation and
// displacement checks (non-conservative backfill) on almost every event.
// This is the path the undo-journal transactions optimize; the steady-load
// BenchmarkEngineSubmitThroughput above barely exercises it.
func BenchmarkEngineBackfillHeavy(b *testing.B) {
	tree := topology.MustNew(16) // 1024 nodes
	eng, err := NewEngine(EngineConfig{Alloc: core.NewAllocator(tree)})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrival := float64(i)
		eng.AdvanceTo(arrival)
		size := 1 + rng.Intn(16)
		if i%25 == 24 {
			// Blocker: needs nearly the whole machine, so it parks at the
			// head while the window backfills around it.
			size = tree.Nodes() - rng.Intn(32)
		}
		j := Job{
			ID:      int64(i + 1),
			Size:    size,
			Arrival: arrival,
			Runtime: 200 + rng.Float64()*400,
		}
		if err := eng.Submit(j); err != nil {
			b.Fatal(err)
		}
	}
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkEngineQueueHeavyHomogeneous measures the schedule pass against a
// deep backlog of same-size jobs whose placement search genuinely fails: 128
// long-running size-7 jobs fragment the 1024-node machine so every leaf
// keeps one free node (128 free nodes total), and the size-12 jobs that then
// arrive are count-feasible — no cheap free-node precheck rejects them — but
// shape-infeasible, so each backfill probe pays a full exhaustive search.
// Every arrival rescans the backfill window over identical candidates; a
// trickle of cancellations keeps the state version moving. This is the
// regime the engine's negative-feasibility cache targets: one failing search
// per state version instead of one per candidate per pass. Run with a fixed
// -benchtime count when comparing builds — the backlog grows with N.
func BenchmarkEngineQueueHeavyHomogeneous(b *testing.B) {
	tree := topology.MustNew(16) // 1024 nodes: 16 pods x 8 leaves x 8 nodes
	eng, err := NewEngine(EngineConfig{Alloc: core.NewAllocator(tree)})
	if err != nil {
		b.Fatal(err)
	}
	// Fragmentation backbone: one size-7 job per leaf (dense-first packing
	// puts each on its own leaf), leaving every leaf with 1 free node and 1
	// free uplink. Any size in 9..128 is then count-feasible but has no
	// legal shape until leaves are freed.
	nLeaves := int64(tree.Leaves())
	for id := int64(1); id <= nLeaves; id++ {
		if err := eng.Submit(Job{ID: id, Size: 7, Arrival: 0, Runtime: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	eng.AdvanceTo(0)
	if s := eng.Snapshot(); s.FreeNodes != tree.Leaves() || s.QueueDepth != 0 {
		b.Fatalf("backbone did not fragment as expected: %+v", s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrival := float64(i)
		eng.AdvanceTo(arrival)
		if err := eng.Submit(Job{ID: nLeaves + int64(i) + 1, Size: 12, Arrival: arrival, Runtime: 10}); err != nil {
			b.Fatal(err)
		}
		// Periodically cancel a backbone job: the release invalidates any
		// cached verdicts and can open a whole leaf, letting some of the
		// backlog through — the cache must keep up with a moving state.
		if i%64 == 63 && int64(i/64) < nLeaves {
			if _, err := eng.Cancel(int64(i/64) + 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkRoutePermutation measures the constructive rearrangeable
// non-blocking router on a multi-tree partition.
func BenchmarkRoutePermutation(b *testing.B) {
	tree := topology.MustNew(16)
	a := core.NewAllocator(tree)
	p, ok := a.FindPartition(200)
	if !ok {
		b.Fatal("no partition")
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm := rng.Perm(200)
		if _, err := RoutePermutation(tree, p, perm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFactorizationOrder compares Jigsaw's dense-first
// two-level factorization order against sparse-first (DESIGN.md Section 7),
// reporting the utilization each achieves on Synth-16.
func BenchmarkAblationFactorizationOrder(b *testing.B) {
	for _, sparse := range []bool{false, true} {
		name := "dense-first"
		if sparse {
			name = "sparse-first"
		}
		b.Run(name, func(b *testing.B) {
			tr := trace.Synth16(benchScale)
			for i := 0; i < b.N; i++ {
				tree := topology.MustNew(16)
				a := core.NewAllocator(tree)
				a.SparseFirst = sparse
				s := sched.New(a, scenario.None{})
				s.MeasureAllocTime = false
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*metrics.Utilization(res), "util-%")
			}
		})
	}
}

// BenchmarkAblationBackfill compares EASY backfilling against pure FIFO
// under Jigsaw (the capability the paper's authors added to the simulator).
func BenchmarkAblationBackfill(b *testing.B) {
	for _, backfill := range []bool{true, false} {
		name := "easy"
		if !backfill {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			tr := trace.Synth16(benchScale)
			for i := 0; i < b.N; i++ {
				tree := topology.MustNew(16)
				a := core.NewAllocator(tree)
				s := sched.New(a, scenario.None{})
				s.MeasureAllocTime = false
				s.DisableBackfill = !backfill
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*metrics.Utilization(res), "util-%")
			}
		})
	}
}

// BenchmarkAblationJigsawSharing contrasts strict Jigsaw with the Jigsaw+S
// extension (link sharing at Jigsaw shapes): sharing should match or beat
// strict isolation on utilization at the cost of the zero-interference
// guarantee.
func BenchmarkAblationJigsawSharing(b *testing.B) {
	for _, scheme := range []string{SchemeJigsaw, SchemeJigsawS} {
		b.Run(scheme, func(b *testing.B) {
			tr := trace.Synth16(benchScale)
			tree := topology.MustNew(16)
			for i := 0; i < b.N; i++ {
				a, err := NewAllocator(scheme, tree)
				if err != nil {
					b.Fatal(err)
				}
				s := sched.New(a, scenario.None{})
				s.MeasureAllocTime = false
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*metrics.Utilization(res), "util-%")
			}
		})
	}
}

// BenchmarkAblationWholeLeafRestriction contrasts Jigsaw's whole-leaf
// three-level restriction with the fully-permissive legal placement space
// (LC+S's search without link sharing is the closest stand-in): Section 4
// argues the restriction buys both speed and utilization.
func BenchmarkAblationWholeLeafRestriction(b *testing.B) {
	for _, scheme := range []string{SchemeJigsaw, SchemeLCS} {
		b.Run(scheme, func(b *testing.B) {
			tr := trace.Synth16(benchScale)
			tree := topology.MustNew(16)
			for i := 0; i < b.N; i++ {
				a, err := NewAllocator(scheme, tree)
				if err != nil {
					b.Fatal(err)
				}
				s := sched.New(a, scenario.None{})
				s.MeasureAllocTime = false
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*metrics.Utilization(res), "util-%")
			}
		})
	}
}
