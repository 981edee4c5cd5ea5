package engine_test

// FuzzShrinkGrow is the differential fuzz target for the malleability layer:
// a byte string decodes into an op sequence (elastic/rigid submissions,
// event delivery, time advance, fail/recover under FailShrink, cancel) that
// drives two engines that must behave identically — one on the real
// allocator (deadline admission's what-if runs on the live state under the
// undo journal, placements consult the feasibility cache, and
// shrink/grow/preempt placements pass the PartitionFinder verify guard) and
// one on a cloneOnly wrapper that hides all three extensions (admission
// replays on a deep clone, no cache, placements charged without the
// independent verify). Failed grow and preempt attempts are undone with
// Mirror in both. Snapshots must match after every op and the full
// accounting ledgers after the drain, pinning that the journal rollback and
// the mirrored-back attempts are exact under elastic moves and that
// find-then-allocate charges the shape it found.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

func FuzzShrinkGrow(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 7, 4, 0, 9, 4, 4, 8, 5})
	f.Add([]byte("shrink-grow-preempt"))
	f.Add([]byte{3, 3, 0, 0, 7, 7, 4, 4, 6, 20, 8, 8, 4, 4, 4})
	f.Add([]byte{2, 200, 1, 100, 7, 0, 4, 9, 0, 6, 50, 8, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		runShrinkGrowDiff(t, data)
	})
}

func runShrinkGrowDiff(t *testing.T, data []byte) {
	tree := topology.MustNew(8)
	newEng := func(cloneMode bool) *engine.Engine {
		var cfg engine.Config
		if cloneMode {
			cfg.Alloc = cloneOnly{core.NewAllocator(tree)}
		} else {
			cfg.Alloc = core.NewAllocator(tree)
		}
		cfg.Window = 10
		cfg.OnFailure = engine.FailShrink
		cfg.Elastic = true
		cfg.History = true
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	et := newEng(false) // transactions, feasibility cache, PartitionFinder verify guard
	ec := newEng(true)  // clone mode, all three hidden

	pos := 0
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	// Derived values (sizes, runtimes, deadlines) come from a PRNG seeded by
	// the input so one byte per op is enough for the fuzzer to explore
	// orderings; determinism per input keeps both engines in lockstep.
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))

	active := make([]bool, len(chaosSpecs))
	nextID := int64(1)
	var known []int64
	now := 0.0
	for op := 0; op < 200; op++ {
		b, ok := next()
		if !ok {
			break
		}
		switch b % 10 {
		case 0, 1, 2: // elastic submit
			size := 2 + rng.Intn(tree.Nodes()/4)
			j := trace.Job{ID: nextID, Size: size, Arrival: now, Runtime: 1 + rng.Float64()*40}
			if b&1 == 0 {
				j.MinNodes = 1 + rng.Intn(size)
			}
			if b&2 == 0 {
				j.MaxNodes = size + rng.Intn(size+1)
				if j.MaxNodes > tree.Nodes() {
					j.MaxNodes = tree.Nodes()
				}
			}
			j.Priority = int(b) % 3
			if b%5 == 0 {
				j.Deadline = j.Arrival + j.Runtime*(0.4+rng.Float64()*4)
			}
			errT, errC := et.Submit(j), ec.Submit(j)
			if (errT == nil) != (errC == nil) {
				t.Fatalf("op %d: submit divergence for job %d", op, j.ID)
			}
			known = append(known, nextID)
			nextID++
		case 3: // rigid submit
			size := 1 + rng.Intn(tree.Nodes()/3)
			j := trace.Job{ID: nextID, Size: size, Arrival: now, Runtime: 1 + rng.Float64()*40}
			errT, errC := et.Submit(j), ec.Submit(j)
			if (errT == nil) != (errC == nil) {
				t.Fatalf("op %d: submit divergence for job %d", op, j.ID)
			}
			known = append(known, nextID)
			nextID++
		case 4, 5: // deliver the next event
			_, okT := et.Step()
			_, okC := ec.Step()
			if okT != okC {
				t.Fatalf("op %d: Step availability diverges", op)
			}
			now = et.Now()
		case 6: // let time pass
			dtb, _ := next()
			dt := float64(dtb) / 8
			et.AdvanceTo(now + dt)
			ec.AdvanceTo(now + dt)
			now = et.Now()
		case 7: // fail an inactive spec
			i := int(b/10) % len(chaosSpecs)
			if active[i] {
				break
			}
			repT, errT := et.Fail(chaosSpecs[i])
			repC, errC := ec.Fail(chaosSpecs[i])
			if (errT == nil) != (errC == nil) || repT != repC {
				t.Fatalf("op %d: fail divergence: %+v vs %+v", op, repT, repC)
			}
			active[i] = true
		case 8: // recover an active spec
			i := int(b/10) % len(chaosSpecs)
			if !active[i] {
				break
			}
			if errT, errC := et.Recover(chaosSpecs[i]), ec.Recover(chaosSpecs[i]); (errT == nil) != (errC == nil) {
				t.Fatalf("op %d: recover divergence", op)
			}
			active[i] = false
		case 9: // cancel
			if len(known) == 0 {
				break
			}
			id := known[int(b/10)%len(known)]
			_, errT := et.Cancel(id)
			_, errC := ec.Cancel(id)
			if (errT == nil) != (errC == nil) {
				t.Fatalf("op %d: cancel divergence for job %d", op, id)
			}
		}
		if sT, sC := et.Snapshot(), ec.Snapshot(); !sameSnapshots(sT, sC) {
			t.Fatalf("op %d: snapshots diverge\ntxn:   %+v\nclone: %+v", op, sT, sC)
		}
		if err := et.Config().Alloc.State().CheckInvariants(); err != nil {
			t.Fatalf("op %d: live state invariants after txn what-ifs: %v", op, err)
		}
	}

	// Heal and drain both engines, then compare the complete ledgers.
	for i, spec := range chaosSpecs {
		if active[i] {
			et.Recover(spec)
			ec.Recover(spec)
		}
	}
	for {
		_, okT := et.Step()
		_, okC := ec.Step()
		if okT != okC {
			t.Fatal("drain step divergence")
		}
		if !okT {
			break
		}
	}
	if !sameSnapshots(et.Snapshot(), ec.Snapshot()) {
		t.Fatal("drained snapshots diverge")
	}
	compareAccounting(t, "Jigsaw", "fuzz", 0, et.Accounting(), ec.Accounting())
	if cT, cC := et.Counts(), ec.Counts(); cT != cC {
		t.Fatalf("counts diverge: %+v vs %+v", cT, cC)
	}
}
