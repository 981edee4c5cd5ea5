package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// BenchmarkSearch measures the allocation search kernels against the reused
// Scratch across tree sizes. The two-level and three-level cases run on an
// empty machine (hit on the first viable factorization); the miss case runs
// on a machine fragmented so that no whole leaf is free, forcing a full
// exhaustive scan — the shape the engine's feasibility cache exists to
// avoid repeating — warm, with one pod changed since the last search, and
// with every pod changed. allocs/op must be 0 for all of them in steady
// state.
func BenchmarkSearch(b *testing.B) {
	for _, radix := range []int{16, 32, 64} {
		tree := topology.MustNew(radix)
		podNodes := tree.LeavesPerPod * tree.NodesPerLeaf

		empty := topology.NewState(tree, 1)
		cases := []struct {
			name string
			st   *topology.State
			size int
			ok   bool
		}{
			// Fits one pod minus a few nodes: two-level with a remainder leaf.
			{"two-level", empty, podNodes - 3, true},
			// Spans several pods plus a remainder tree: three-level search.
			{"three-level", empty, 3*podNodes + tree.NodesPerLeaf, true},
		}

		// Fragment a separate state: one node taken on every leaf leaves no
		// whole leaf free, so a full-pod request fails only after both passes
		// exhaust every factorization.
		frag := topology.NewState(tree, 1)
		pl := topology.NewPlacement(1, 1)
		for leaf := 0; leaf < tree.Leaves(); leaf++ {
			pl.AddLeafNodes(leaf, 1)
		}
		pl.Apply(frag)
		cases = append(cases, struct {
			name string
			st   *topology.State
			size int
			ok   bool
		}{"miss", frag, podNodes, false})

		for _, c := range cases {
			b.Run(fmt.Sprintf("radix=%d/%s", radix, c.name), func(b *testing.B) {
				sc := &core.Scratch{}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, ok := core.Search(c.st, 1, c.size, false, core.DefaultSearchBudget, sc)
					if ok != c.ok {
						b.Fatalf("size %d: ok = %v, want %v", c.size, ok, c.ok)
					}
				}
			})
		}

		// The miss again after a charge and release of churn nodes, so the
		// scratch's per-pod summaries are stale where the churn landed:
		// miss-one-pod-dirty churns one node of leaf 0 (one pod to rebuild,
		// the common case after a start or completion); miss-cold churns one
		// node in every pod, so every search pays the full summary rebuild.
		for _, c := range []struct {
			name string
			pods int
		}{{"miss-one-pod-dirty", 1}, {"miss-cold", tree.Pods}} {
			churn := topology.NewPlacement(2, 1)
			for p := 0; p < c.pods; p++ {
				churn.AddLeafNodes(tree.LeafIndex(p, 0), 1)
			}
			b.Run(fmt.Sprintf("radix=%d/%s", radix, c.name), func(b *testing.B) {
				sc := &core.Scratch{}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					churn.Apply(frag)
					churn.Release(frag)
					_, ok := core.Search(frag, 1, podNodes, false, core.DefaultSearchBudget, sc)
					if ok {
						b.Fatalf("size %d: expected miss", podNodes)
					}
				}
			})
		}
	}
}
