package jigsaws

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lcs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestPlacementsAreJigsawLegal(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	for size := 1; size <= tree.Nodes(); size += 7 {
		p, ok := a.FindJobPartition(topology.JobID(size), size)
		if !ok {
			t.Fatalf("size %d failed on empty machine", size)
		}
		if p.Size() != size {
			t.Fatalf("size %d: got %d nodes", size, p.Size())
		}
		if err := p.Verify(tree); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestLinkSharingAdmitsDeeperPacking(t *testing.T) {
	tree := topology.MustNew(8)
	shared := NewAllocator(tree)
	strict := core.NewAllocator(tree)

	// Jobs of 3 nodes leave every leaf one node short; strict Jigsaw can
	// still fill the machine, and so must Jigsaw+S — but Jigsaw+S does it
	// while consuming only a fraction of each uplink.
	placedShared, placedStrict := 0, 0
	for j := 1; ; j++ {
		if _, ok := shared.Allocate(topology.JobID(j), 3); !ok {
			break
		}
		placedShared += 3
	}
	for j := 1; ; j++ {
		if _, ok := strict.Allocate(topology.JobID(j), 3); !ok {
			break
		}
		placedStrict += 3
	}
	if placedShared < placedStrict {
		t.Fatalf("Jigsaw+S packed %d nodes, strict Jigsaw %d: sharing must not lose placements", placedShared, placedStrict)
	}

	// A multi-pod job on a fresh Jigsaw+S charges its bandwidth class, not
	// the whole link, on every leaf and spine uplink it uses.
	fresh := NewAllocator(tree)
	const job = topology.JobID(7)
	pl, ok := fresh.Allocate(job, 40)
	if !ok {
		t.Fatal("40 nodes failed on an empty machine")
	}
	if len(pl.LeafUps) == 0 || len(pl.SpineUps) == 0 {
		t.Fatalf("a 40-node job must use leaf and spine uplinks: %d leaf, %d spine", len(pl.LeafUps), len(pl.SpineUps))
	}
	want := lcs.LinkCapacity - lcs.DemandFor(job)
	st := fresh.State()
	for _, u := range pl.LeafUps {
		if r := st.LeafUpResidual(int(u.Leaf), int(u.L2)); r != want {
			t.Fatalf("leaf %d uplink %d: residual %d, want %d", u.Leaf, u.L2, r, want)
		}
	}
	for _, u := range pl.SpineUps {
		if r := st.SpineUpResidual(int(u.Pod), int(u.L2), int(u.Spine)); r != want {
			t.Fatalf("pod %d L2 %d spine %d: residual %d, want %d", u.Pod, u.L2, u.Spine, r, want)
		}
	}
}

func TestSchedulerIntegration(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	s := sched.New(a, scenario.Fixed{Pct: 10})
	s.MeasureAllocTime = false
	synth := trace.Synth(trace.SynthConfig{
		Name: "mini", Jobs: 250, MeanSize: 10, MaxSize: 60,
		MinRun: 5, MaxRun: 50, SystemNodes: 128, Seed: 5,
	})
	res, err := s.Run(synth)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 250 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("leak")
	}
	if s.ApplySpeedups != true {
		t.Fatal("Jigsaw+S is (nearly) isolating; speed-ups apply")
	}
}

func TestCloneIndependence(t *testing.T) {
	tree := topology.MustNew(6)
	a := NewAllocator(tree)
	c := a.Clone()
	c.Allocate(1, 9)
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("clone leaked")
	}
}
