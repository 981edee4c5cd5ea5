package snapshot

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// TestPodSummariesIncrementalMatchFresh pins the publisher's remembered pod
// summaries against a fresh State.PodSummaries after every step of random
// histories — allocations and releases, what-if transactions rolled back,
// failures of every kind applied and recovered — on whole and cell-restricted
// states; and it pins that a result handed out earlier never changes, since a
// published View must stay immutable while later publishes reuse its
// unchanged pods.
func TestPodSummariesIncrementalMatchFresh(t *testing.T) {
	tree := topology.MustNew(8)
	specs := []topology.Failure{
		topology.NodeFailure(5),
		topology.LeafUplinkFailure(9, 1),
		topology.SpineUplinkFailure(6, 2, 3),
		topology.LeafSwitchFailure(20),
		topology.L2SwitchFailure(3, 0),
		topology.SpineSwitchFailure(1, 2),
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := core.NewAllocator(tree)
		st := a.State()
		if seed%2 == 1 {
			lo := rng.Intn(tree.Pods - 1)
			st.RestrictToPods(lo, lo+1+rng.Intn(tree.Pods-lo-1))
		}
		p := &Publisher{}
		var live []*topology.Placement
		var handed [][]topology.PodSummary // every result so far
		var copies [][]topology.PodSummary // deep copies taken when handed out
		id := topology.JobID(1)
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(6); {
			case op < 2 && st.FreeNodes() > 0:
				if pl, ok := a.Allocate(id, 1+rng.Intn(st.FreeNodes())); ok {
					live = append(live, pl)
					id++
				}
			case op == 2 && len(live) > 0:
				i := rng.Intn(len(live))
				a.Release(live[i])
				live = slices.Delete(live, i, i+1)
			case op == 3:
				st.Begin()
				a.Allocate(id, 1+rng.Intn(tree.PodNodes()))
				st.Rollback()
			case op == 4:
				_ = specs[rng.Intn(len(specs))].Apply(st) // refusals (in use, outside the cell) are fine
			case op == 5:
				if active := st.ActiveFailures(); len(active) > 0 {
					if err := active[rng.Intn(len(active))].Revert(st); err != nil {
						t.Fatal(err)
					}
				}
			}
			if rng.Intn(3) == 0 {
				continue // let changes pile up between publishes
			}
			got := p.podSummaries(st)
			if want := st.PodSummaries(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: incremental summaries\n%+v\nfresh\n%+v", seed, step, got, want)
			}
			handed = append(handed, got)
			copies = append(copies, deepCopy(got))
		}
		for i := range handed {
			if !reflect.DeepEqual(handed[i], copies[i]) {
				t.Fatalf("seed %d: result %d changed after it was handed out", seed, i)
			}
		}
	}
}

func deepCopy(sums []topology.PodSummary) []topology.PodSummary {
	out := slices.Clone(sums)
	for i := range out {
		out[i].SpineFree = slices.Clone(out[i].SpineFree)
	}
	return out
}
