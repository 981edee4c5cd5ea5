package engine

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/jigsaws"
	"repro/internal/laas"
	"repro/internal/scenario"
	"repro/internal/ta"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestReservationCacheMatchesRecompute pins the reservation cache as
// decision-neutral: an engine that keeps the blocked head's reservation
// across natural completions must schedule exactly like a twin that drops
// it after every step and recomputes it on the next pass. The paper's
// seeded traces run through both, and the ledgers (Records, Rejected,
// UtilSeries) and AllocCalls must be bit-identical.
//
// LC+S is excluded by name, because the claim does not hold for it: on
// Oct-Cab at scale 0.1 (cmd/jigsim) the cached engine reads 93.88 %
// utilization and a 4 311 741 s makespan, the recomputing one 94.02 % and
// 4 304 971 s. LC+S's search stops at a step budget, so its "no placement"
// can be a budget miss rather than a fact about resources; a replay on the
// shadow-time state can then disagree with what the cache predicted when
// the reservation was made. Keying the reservation on releaseEpoch instead
// of cancelEpoch gives the recomputed numbers back; that change moves LC+S's
// golden ledgers and is left for its own change.
func TestReservationCacheMatchesRecompute(t *testing.T) {
	policies := []struct {
		name string
		mk   func(*topology.FatTree) alloc.Allocator
	}{
		{"Baseline", func(t *topology.FatTree) alloc.Allocator { return baseline.NewAllocator(t) }},
		{"Jigsaw", func(t *topology.FatTree) alloc.Allocator { return core.NewAllocator(t) }},
		{"Jigsaw+S", func(t *topology.FatTree) alloc.Allocator { return jigsaws.NewAllocator(t) }},
		{"LaaS", func(t *topology.FatTree) alloc.Allocator { return laas.NewAllocator(t) }},
		{"TA", func(t *topology.FatTree) alloc.Allocator { return ta.NewAllocator(t) }},
	}
	runs := []struct {
		tr *trace.Trace
		sc scenario.Scenario
	}{
		{trace.Synth16(0.03), scenario.None{}},
		{trace.ThunderLike(0.003), scenario.None{}},
		{trace.OctCab(0.003), scenario.None{}},
		{trace.AugCab(0.005), scenario.Fixed{Pct: 10}},
	}
	for _, p := range policies {
		for _, r := range runs {
			t.Run(p.name+"/"+r.tr.Name+"/"+r.sc.Name(), func(t *testing.T) {
				tree := topology.MustNew(r.tr.SimRadix)
				run := func(recompute bool) Accounting {
					e, err := New(Config{
						Alloc:         p.mk(tree),
						Scenario:      r.sc,
						ApplySpeedups: p.name != "Baseline",
						History:       true,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, j := range r.tr.Jobs {
						if err := e.Submit(j); err != nil {
							t.Fatal(err)
						}
					}
					for {
						if _, ok := e.Step(); !ok {
							return e.Accounting()
						}
						if recompute {
							e.resvValid = false
						}
					}
				}
				cached, fresh := run(false), run(true)
				if !reflect.DeepEqual(cached.Records, fresh.Records) {
					t.Errorf("Records diverge: %d cached, %d recomputed", len(cached.Records), len(fresh.Records))
				}
				if !reflect.DeepEqual(cached.Rejected, fresh.Rejected) {
					t.Errorf("Rejected diverge: %d cached, %d recomputed", len(cached.Rejected), len(fresh.Rejected))
				}
				if !reflect.DeepEqual(cached.UtilSeries, fresh.UtilSeries) {
					t.Errorf("UtilSeries diverge")
				}
				if cached.AllocCalls != fresh.AllocCalls {
					t.Errorf("AllocCalls diverge: %d cached, %d recomputed", cached.AllocCalls, fresh.AllocCalls)
				}
			})
		}
	}
}
