package engine_test

// Zero-failure pinning for the fault-injection subsystem: the golden hashes
// below were recorded from the engine BEFORE the failure model existed, so
// this test proves that an engine carrying the fault plumbing — but with no
// faults injected — produces a bit-for-bit identical ledger. The history
// covers all six policies × {EASY, FIFO} over a fixed
// submit/cancel/drain schedule; the hash covers every Accounting field, the
// outcome counts, and the drained snapshot, with float64s folded in by their
// exact IEEE-754 bit patterns.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// zeroFailureGolden maps "policy/variant" to the SHA-256 of the ledger
// produced by the pre-failure-model engine on the fixed history below.
// Regenerate (only when an intentional scheduling change lands) with:
//
//	GOLDEN_REGEN=1 go test ./internal/engine -run TestZeroFailureLedgerGolden -v
var zeroFailureGolden = map[string]string{
	"Baseline/easy": "cff30f18af047b7b1eff498b1a32148963835c804bfffc9946fbb8a4f43b10d7",
	"Baseline/fifo": "656f2c4cf7d240bad7151ae0ee90484cb3ae075dd55b27c6e16199d162093fff",
	"Jigsaw+S/easy": "4096d6258dcf9bc9fabfccb0556abf0278ecc6136dc152c5b9895f9c06b7a82f",
	"Jigsaw+S/fifo": "3bd71d68d7f91579c00bb3c56c502f5079621742bccf85f881a9dcc5ce591707",
	"Jigsaw/easy":   "4096d6258dcf9bc9fabfccb0556abf0278ecc6136dc152c5b9895f9c06b7a82f",
	"Jigsaw/fifo":   "3bd71d68d7f91579c00bb3c56c502f5079621742bccf85f881a9dcc5ce591707",
	"LC+S/easy":     "cff30f18af047b7b1eff498b1a32148963835c804bfffc9946fbb8a4f43b10d7",
	"LC+S/fifo":     "4947d3c4278fb84a1cafb41959c9181cdb7141674516aa5df66630b75d16a5a3",
	"LaaS/easy":     "91e533664fb7815a5dbb6511208eebc61ff5df4703c783905e8ed015d9a4307f",
	"LaaS/fifo":     "adf846229dcecb1c420eb0dda8e74298d55a713affbad0e33265ce6b6ea90f7a",
	"TA/easy":       "011984f50d9af9e3cadddad35a7c39282969487ebb3ea83017707ceee6b61a22",
	"TA/fifo":       "7b0d6f8ea874f5246ccb50384c0531de9cffcfc456fcc6b08a8a8367f6d70bc2",
}

func hashFloat(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}

func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashJob(h hash.Hash, j trace.Job) {
	hashInt(h, j.ID)
	hashInt(h, int64(j.Size))
	hashFloat(h, j.Arrival)
	hashFloat(h, j.Runtime)
}

// ledgerHash folds every observable output of a drained engine into one hash.
func ledgerHash(e *engine.Engine) string {
	h := sha256.New()
	acc := e.Accounting()
	hashInt(h, int64(len(acc.Records)))
	for _, r := range acc.Records {
		hashJob(h, r.Job)
		hashFloat(h, r.Runtime)
		hashFloat(h, r.Start)
		hashFloat(h, r.End)
	}
	hashInt(h, int64(len(acc.Rejected)))
	for _, j := range acc.Rejected {
		hashJob(h, j)
	}
	hashInt(h, int64(len(acc.UtilSeries)))
	for _, p := range acc.UtilSeries {
		hashFloat(h, p.T)
		hashInt(h, int64(p.Used))
	}
	hashInt(h, int64(len(acc.InstSamples)))
	for _, v := range acc.InstSamples {
		hashFloat(h, v)
	}
	hashFloat(h, acc.FirstArrival)
	hashFloat(h, acc.LastEnd)
	hashFloat(h, acc.SteadyEnd)
	hashInt(h, int64(acc.AllocCalls))
	c := e.Counts()
	hashInt(h, c.Submitted)
	hashInt(h, c.Started)
	hashInt(h, c.Completed)
	hashInt(h, c.Rejected)
	hashInt(h, c.Cancelled)
	s := e.Snapshot()
	hashFloat(h, s.Now)
	hashInt(h, int64(s.UsedNodes))
	hashInt(h, int64(s.FreeNodes))
	hashInt(h, int64(s.QueueDepth))
	hashInt(h, int64(s.RunningJobs))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// driveGoldenHistory pushes a fixed, seeded submit/cancel/advance schedule
// through the engine and drains it. The history is identical for every
// policy/variant cell; only the engine under test differs.
func driveGoldenHistory(t *testing.T, e *engine.Engine, tree *topology.FatTree) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	now := 0.0
	id := int64(1)
	var known []int64
	for step := 0; step < 220; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			size := 1 + rng.Intn(2*tree.Radix)
			switch rng.Intn(12) {
			case 0:
				size = tree.Nodes() - rng.Intn(tree.Radix)
			case 1:
				size = tree.Nodes() + 1 + rng.Intn(8)
			}
			j := trace.Job{ID: id, Size: size, Arrival: now + rng.Float64()*25, Runtime: 1 + rng.Float64()*80}
			if err := e.Submit(j); err != nil {
				t.Fatalf("submit %d: %v", id, err)
			}
			known = append(known, id)
			id++
		case op < 8:
			e.Step()
			now = e.Now()
		case op < 9:
			e.AdvanceTo(now + rng.Float64()*30)
			now = e.Now()
		default:
			if len(known) > 0 {
				e.Cancel(known[rng.Intn(len(known))]) // error (already done) is fine
			}
		}
	}
	for {
		if _, ok := e.Step(); !ok {
			break
		}
	}
}

// TestZeroFailureLedgerGolden pins that an engine with the failure subsystem
// compiled in — but never exercised — matches the pre-failure engine ledger
// exactly, across all six policies and both scheduling modes.
func TestZeroFailureLedgerGolden(t *testing.T) {
	regen := os.Getenv("GOLDEN_REGEN") != ""
	tree := topology.MustNew(8)
	for _, policy := range allPolicies {
		for _, v := range engineVariants {
			key := policy + "/" + v.name
			t.Run(key, func(t *testing.T) {
				eng, err := engine.New(engine.Config{
					Alloc:           newPolicy(t, policy, tree),
					DisableBackfill: v.disableBackfill,
					Window:          10,
					History:         true,
				})
				if err != nil {
					t.Fatal(err)
				}
				driveGoldenHistory(t, eng, tree)
				got := ledgerHash(eng)
				if regen {
					t.Logf("golden %q: %q", key, got)
					return
				}
				want, ok := zeroFailureGolden[key]
				if !ok {
					t.Fatalf("no golden hash recorded for %s", key)
				}
				if got != want {
					t.Fatalf("%s: ledger hash %s, golden (pre-failure-model) %s — the zero-failure path changed behavior", key, got, want)
				}
			})
		}
	}
}

// TestZeroFailureLedgerGoldenElastic replays the exact same rigid history
// through engines with the malleability layer switched ON (Config.Elastic,
// FailShrink) and demands the same 12 golden hashes: every elastic path is
// additionally gated on the job declaring elastic fields, so a trace of
// rigid jobs must schedule bit-for-bit identically — same allocator call
// counts, same ledgers — with elasticity enabled or not.
func TestZeroFailureLedgerGoldenElastic(t *testing.T) {
	tree := topology.MustNew(8)
	for _, policy := range allPolicies {
		for _, v := range engineVariants {
			key := policy + "/" + v.name
			t.Run(key, func(t *testing.T) {
				eng, err := engine.New(engine.Config{
					Alloc:           newPolicy(t, policy, tree),
					DisableBackfill: v.disableBackfill,
					Window:          10,
					Elastic:         true,
					OnFailure:       engine.FailShrink,
					History:         true,
				})
				if err != nil {
					t.Fatal(err)
				}
				driveGoldenHistory(t, eng, tree)
				if got, want := ledgerHash(eng), zeroFailureGolden[key]; got != want {
					t.Fatalf("%s: elastic-engine ledger hash %s, golden %s — Config.Elastic perturbed a rigid trace", key, got, want)
				}
				if c := eng.Counts(); c.Shrunk+c.Grown+c.Preempted != 0 {
					t.Fatalf("%s: rigid history performed elastic moves: %+v", key, c)
				}
			})
		}
	}
}
