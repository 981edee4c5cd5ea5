package alloc_test

// Contract tests for every Allocator implementation: the scheduler (and now
// the online engine) relies on Clone producing fully independent state, on
// failed Allocate calls leaving state untouched, and on Mirror replaying a
// placement onto a peer allocator. A policy that violates any of these
// corrupts EASY reservation and backfill checks in ways that are very hard
// to see from scheduling output alone, so they are pinned here directly.

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/jigsaws"
	"repro/internal/laas"
	"repro/internal/lcs"
	"repro/internal/ta"
	"repro/internal/topology"
)

// policies maps scheme names to fresh-allocator constructors on a tree.
var policies = map[string]func(*topology.FatTree) alloc.Allocator{
	"Baseline": func(t *topology.FatTree) alloc.Allocator { return baseline.NewAllocator(t) },
	"Jigsaw":   func(t *topology.FatTree) alloc.Allocator { return core.NewAllocator(t) },
	"Jigsaw+S": func(t *topology.FatTree) alloc.Allocator { return jigsaws.NewAllocator(t) },
	"LaaS":     func(t *topology.FatTree) alloc.Allocator { return laas.NewAllocator(t) },
	"TA":       func(t *topology.FatTree) alloc.Allocator { return ta.NewAllocator(t) },
	"LC+S":     func(t *topology.FatTree) alloc.Allocator { return lcs.NewAllocator(t) },
}

func sortedNodes(p *topology.Placement) []topology.NodeID {
	ids := append([]topology.NodeID(nil), p.Nodes...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestAllocatorContract(t *testing.T) {
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			tree := topology.MustNew(8) // 128 nodes
			a := mk(tree)
			if a.Name() == "" {
				t.Fatal("empty Name()")
			}
			if a.Tree() != tree {
				t.Fatal("Tree() does not return the construction tree")
			}
			total := tree.Nodes()
			if a.FreeNodes() != total {
				t.Fatalf("pristine FreeNodes = %d, want %d", a.FreeNodes(), total)
			}

			// A successful Allocate charges exactly size nodes.
			p, ok := a.Allocate(1, 8)
			if !ok {
				t.Fatal("Allocate(8) failed on an empty 128-node tree")
			}
			if p.Size() != 8 {
				t.Fatalf("placement size %d, want 8", p.Size())
			}
			if a.FreeNodes() != total-8 {
				t.Fatalf("FreeNodes = %d after 8-node allocate, want %d", a.FreeNodes(), total-8)
			}

			// A failed Allocate leaves the state untouched.
			before := a.FreeNodes()
			if p2, ok := a.Allocate(2, total+1); ok || p2 != nil {
				t.Fatalf("oversize Allocate succeeded: %v %v", p2, ok)
			}
			if a.FreeNodes() != before {
				t.Fatalf("failed Allocate changed FreeNodes: %d -> %d", before, a.FreeNodes())
			}

			// Release restores the full machine.
			a.Release(p)
			if a.FreeNodes() != total {
				t.Fatalf("FreeNodes = %d after release, want %d", a.FreeNodes(), total)
			}

			// Fill-and-drain: the machine survives many small jobs.
			var ps []*topology.Placement
			for id := topology.JobID(10); ; id++ {
				q, ok := a.Allocate(id, 4)
				if !ok {
					break
				}
				ps = append(ps, q)
			}
			if len(ps) == 0 {
				t.Fatal("could not place any 4-node job")
			}
			for _, q := range ps {
				a.Release(q)
			}
			if a.FreeNodes() != total {
				t.Fatalf("FreeNodes = %d after fill-and-drain, want %d", a.FreeNodes(), total)
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			tree := topology.MustNew(8)
			a := mk(tree)
			p1, ok := a.Allocate(1, 16)
			if !ok {
				t.Fatal("setup allocate failed")
			}
			c := a.Clone()
			if c.FreeNodes() != a.FreeNodes() {
				t.Fatalf("clone FreeNodes %d != original %d", c.FreeNodes(), a.FreeNodes())
			}
			if c.Tree() != tree {
				t.Fatal("clone must share the (immutable) tree")
			}

			// Mutating the original must not leak into the clone...
			if _, ok := a.Allocate(2, 8); !ok {
				t.Fatal("allocate on original failed")
			}
			if c.FreeNodes() != tree.Nodes()-16 {
				t.Fatalf("original's allocate leaked into clone: FreeNodes %d", c.FreeNodes())
			}
			// ...and vice versa.
			if _, ok := c.Allocate(3, 32); !ok {
				t.Fatal("allocate on clone failed")
			}
			if a.FreeNodes() != tree.Nodes()-16-8 {
				t.Fatalf("clone's allocate leaked into original: FreeNodes %d", a.FreeNodes())
			}
			// Releasing on the original must not free the clone's copy.
			a.Release(p1)
			if c.FreeNodes() != tree.Nodes()-16-32 {
				t.Fatalf("original's release leaked into clone: FreeNodes %d", c.FreeNodes())
			}
		})
	}
}

func TestCloneDeterminism(t *testing.T) {
	// The same Allocate sequence on an allocator and on its pristine clone
	// must yield identical placements — nodes, links and per-link demand —
	// and the clone must keep the policy's name and feasibility classes.
	// The engine's reservation and backfill checks replay decisions on
	// clones and assume this.
	sizes := []int{8, 4, 16, 4, 12, 8, 40}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			a := mk(topology.MustNew(8))
			c := a.Clone()
			if c.Name() != a.Name() {
				t.Fatalf("clone name %q, original %q", c.Name(), a.Name())
			}
			if fa, ok := a.(alloc.FeasibilityClasser); ok {
				fc := c.(alloc.FeasibilityClasser)
				for id := topology.JobID(1); id <= 16; id++ {
					if x, y := fa.FeasibilityClass(id), fc.FeasibilityClass(id); x != y {
						t.Fatalf("job %d: original class %d, clone class %d", id, x, y)
					}
				}
			}
			for i, size := range sizes {
				id := topology.JobID(i + 1)
				pa, oka := a.Allocate(id, size)
				pc, okc := c.Allocate(id, size)
				if oka != okc {
					t.Fatalf("job %d: original ok=%v, clone ok=%v", id, oka, okc)
				}
				if oka && !reflect.DeepEqual(pa, pc) {
					t.Fatalf("job %d: placements diverge:\n%+v\n%+v", id, pa, pc)
				}
			}
		})
	}
}

func TestMirrorChargesPeerState(t *testing.T) {
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			tree := topology.MustNew(8)
			a, b := mk(tree), mk(tree)
			p, ok := a.Allocate(1, 24)
			if !ok {
				t.Fatal("setup allocate failed")
			}
			b.Mirror(p)
			if b.FreeNodes() != a.FreeNodes() {
				t.Fatalf("mirror: peer FreeNodes %d != source %d", b.FreeNodes(), a.FreeNodes())
			}
			// The mirrored resources are really charged: releasing them
			// restores the peer to pristine.
			b.Release(p)
			if b.FreeNodes() != tree.Nodes() {
				t.Fatalf("peer FreeNodes %d after release, want %d", b.FreeNodes(), tree.Nodes())
			}
		})
	}
}
