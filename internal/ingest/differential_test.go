package ingest_test

// The batched-vs-serial differential (ISSUE 6's pinning test): an identical
// randomized trace of submits, cancels, and clock advances is pushed through
// two engines per policy — one fed through the real Batcher/Collect/Apply
// machinery in randomly-sized batches, one applied strictly one op at a
// time — and the complete accounting ledgers must match bit-for-bit. This
// is what licenses the server to coalesce many HTTP requests into one
// engine tick: batching changes coordination cost, never the schedule.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/jigsaws"
	"repro/internal/laas"
	"repro/internal/lcs"
	"repro/internal/ta"
	"repro/internal/topology"
	"repro/internal/trace"
)

func newAllocator(t *testing.T, name string, tree *topology.FatTree) engine.Config {
	t.Helper()
	cfg := engine.Config{History: true}
	switch name {
	case "Baseline":
		cfg.Alloc = baseline.NewAllocator(tree)
	case "Jigsaw":
		cfg.Alloc = core.NewAllocator(tree)
	case "Jigsaw+S":
		cfg.Alloc = jigsaws.NewAllocator(tree)
	case "LaaS":
		cfg.Alloc = laas.NewAllocator(tree)
	case "TA":
		cfg.Alloc = ta.NewAllocator(tree)
	case "LC+S":
		cfg.Alloc = lcs.NewAllocator(tree)
	default:
		t.Fatalf("unknown policy %q", name)
	}
	return cfg
}

// traceItem is one element of the generated history: an op to ingest or a
// clock advance (the batched side advances between drains exactly where the
// serial side does, mimicking the server loop's wall-clock chase).
type traceItem struct {
	op      *ingest.Op // nil for an advance
	advance float64
}

func genTrace(rng *rand.Rand, tree *topology.FatTree, n int) []traceItem {
	items := make([]traceItem, 0, n)
	now := 0.0
	var submitted []int64
	nextExplicit := int64(100000) // explicit IDs interleave with auto-assigned
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			j := trace.Job{
				Size:    1 + rng.Intn(tree.Nodes()/2),
				Arrival: now + rng.Float64()*5,
				Runtime: 0.5 + rng.Float64()*40,
			}
			switch rng.Intn(8) {
			case 0:
				j.ID = nextExplicit // explicit-ID path
				nextExplicit++
			case 1:
				j.Size = tree.Nodes() + 1 // rejection path
			}
			items = append(items, traceItem{op: &ingest.Op{Kind: ingest.Submit, Job: j}})
			if j.ID != 0 {
				submitted = append(submitted, j.ID)
			} else {
				submitted = append(submitted, int64(len(submitted)+1)) // approximate auto ID
			}
		case r < 8 && len(submitted) > 0:
			items = append(items, traceItem{op: &ingest.Op{
				Kind: ingest.Cancel, ID: submitted[rng.Intn(len(submitted))],
			}})
		default:
			now += rng.Float64() * 20
			items = append(items, traceItem{advance: now})
		}
	}
	return items
}

// cloneOps deep-copies the ops of a trace so the two engines never share
// result slots.
func cloneItems(items []traceItem) []traceItem {
	out := make([]traceItem, len(items))
	for i, it := range items {
		out[i] = it
		if it.op != nil {
			c := *it.op
			out[i].op = &c
		}
	}
	return out
}

func TestBatchedIngestMatchesSerial(t *testing.T) {
	tree := topology.MustNew(8) // 256 nodes
	for _, policy := range []string{"Baseline", "Jigsaw", "Jigsaw+S", "LaaS", "TA", "LC+S"} {
		t.Run(policy, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runBatchedVsSerial(t, policy, seed, tree)
			}
		})
	}
}

func mkEngine(t *testing.T, policy string, tree *topology.FatTree) *engine.Engine {
	t.Helper()
	cfg := newAllocator(t, policy, tree)
	cfg.Window = 10
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func runBatchedVsSerial(t *testing.T, policy string, seed int64, tree *topology.FatTree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := genTrace(rng, tree, 140)
	serialItems := cloneItems(items)

	// Serial reference: one op per apply, advances inline.
	es := mkEngine(t, policy, tree)
	as := ingest.NewApplier(es)
	for _, it := range serialItems {
		if it.op != nil {
			as.Apply(it.op)
		} else {
			es.AdvanceTo(it.advance)
		}
	}

	// Batched side: ops flow through a real Batcher and are collected in
	// randomly-bounded batches; advances land between drains exactly where
	// the serial side advanced.
	eb := mkEngine(t, policy, tree)
	ab := ingest.NewApplier(eb)
	b := ingest.NewBatcher(512, 1+rng.Intn(32))
	var buf []*ingest.Op
	flush := func() {
		for {
			select {
			case <-b.Wake():
				buf = b.Collect(buf)
				for _, op := range buf {
					ab.Apply(op)
					op.Finish()
				}
			default:
				return
			}
		}
	}
	for _, it := range items {
		if it.op != nil {
			if _, err := b.Enqueue(it.op); err != nil {
				t.Fatalf("%s seed %d: enqueue: %v", policy, seed, err)
			}
			if rng.Intn(4) == 0 { // drain at random points, not per-op
				flush()
			}
		} else {
			flush() // an advance is a drain boundary in the server loop
			eb.AdvanceTo(it.advance)
		}
	}
	flush()

	// Per-op results must agree (status, error-ness, assigned IDs)…
	for i := range items {
		bo, so := items[i].op, serialItems[i].op
		if bo == nil {
			continue
		}
		if (bo.Err == nil) != (so.Err == nil) || bo.Known != so.Known ||
			!reflect.DeepEqual(bo.Status, so.Status) || bo.Job.ID != so.Job.ID {
			t.Fatalf("%s seed %d op %d: results diverge\nbatched: %+v err=%v known=%v\nserial:  %+v err=%v known=%v",
				policy, seed, i, bo.Status, bo.Err, bo.Known, so.Status, so.Err, so.Known)
		}
	}

	// …and after draining both engines, so must the complete ledgers.
	for {
		_, okB := eb.Step()
		_, okS := es.Step()
		if okB != okS {
			t.Fatalf("%s seed %d: drain divergence", policy, seed)
		}
		if !okB {
			break
		}
	}
	accB, accS := eb.Accounting(), es.Accounting()
	accB.AllocSeconds, accS.AllocSeconds = 0, 0 // wall-clock timing, not schedule
	if !reflect.DeepEqual(accB, accS) {
		t.Fatalf("%s seed %d: ledgers diverge\nbatched: %+v\nserial:  %+v", policy, seed, accB, accS)
	}
	if eb.Counts() != es.Counts() {
		t.Fatalf("%s seed %d: counts diverge: %+v vs %+v", policy, seed, eb.Counts(), es.Counts())
	}
	if !reflect.DeepEqual(eb.Snapshot().Running, es.Snapshot().Running) {
		t.Fatalf("%s seed %d: running sets diverge", policy, seed)
	}
}
