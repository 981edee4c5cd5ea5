// Package shard defines the fabric decomposition the sharded daemon uses:
// cells (contiguous pod ranges, one scheduling engine each), deterministic
// job routing to cells, and composition of legal cross-cell placements from
// the pods' free leaves using the partition conditions of Section 3.2.
//
// The package is pure logic over topology and partition — no goroutines, no
// locks — so the concurrency-heavy gateway (internal/server) stays thin and
// everything here is unit-testable in isolation.
package shard

import (
	"fmt"

	"repro/internal/topology"
)

// Cell is one shard's slice of the fabric: the contiguous pod range
// [PodLo, PodHi).
type Cell struct {
	Index int
	PodLo int
	PodHi int
}

// Pods returns the number of pods in the cell.
func (c Cell) Pods() int { return c.PodHi - c.PodLo }

// Nodes returns the cell's node capacity.
func (c Cell) Nodes(t *topology.FatTree) int { return c.Pods() * t.PodNodes() }

// Plan splits the tree's pods into n contiguous cells as evenly as possible
// (when Pods % n != 0 the first Pods%n cells get one extra pod). It errors
// rather than panics so the daemon can reject a bad -shards flag cleanly.
func Plan(t *topology.FatTree, n int) ([]Cell, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if n > t.Pods {
		return nil, fmt.Errorf("shard: %d shards exceed %d pods (each cell needs a pod)", n, t.Pods)
	}
	per, extra := t.Pods/n, t.Pods%n
	cells := make([]Cell, n)
	lo := 0
	for i := range cells {
		hi := lo + per
		if i < extra {
			hi++
		}
		cells[i] = Cell{Index: i, PodLo: lo, PodHi: hi}
		lo = hi
	}
	return cells, nil
}

// MaxCellNodes returns the largest cell capacity — the widest job the
// single-shard path can take; anything larger goes cross-shard.
func MaxCellNodes(t *topology.FatTree, cells []Cell) int {
	m := 0
	for _, c := range cells {
		if n := c.Nodes(t); n > m {
			m = n
		}
	}
	return m
}

// CellOf returns the index of the cell containing the pod, or -1.
func CellOf(cells []Cell, pod int) int {
	for _, c := range cells {
		if pod >= c.PodLo && pod < c.PodHi {
			return c.Index
		}
	}
	return -1
}

// RouteHash picks the cell for a single-shard job: probe cells starting at
// id mod n, take the first whose capacity fits the job's size. The result
// depends only on (id, size, cells), so replaying a trace routes every job
// identically — the property the shard-count differential tests rely on.
// Returns -1 when no cell is wide enough (the job is cross-shard).
func RouteHash(t *topology.FatTree, cells []Cell, id int64, size int) int {
	n := len(cells)
	start := int(uint64(id) % uint64(n))
	for k := 0; k < n; k++ {
		c := cells[(start+k)%n]
		if size <= c.Nodes(t) {
			return c.Index
		}
	}
	return -1
}

// SplitByCell splits a (not yet applied) cross-shard placement into one
// placement per cell, keyed by cell index. Every resource of a placement is
// attributable to exactly one pod — nodes and leaf uplinks through their
// leaf, spine uplinks through their pod — so the slices partition the
// original exactly and each can be mirrored onto its cell's engine
// independently.
func SplitByCell(t *topology.FatTree, cells []Cell, pl *topology.Placement) (map[int]*topology.Placement, error) {
	out := map[int]*topology.Placement{}
	slice := func(pod int) (*topology.Placement, error) {
		ci := CellOf(cells, pod)
		if ci < 0 {
			return nil, fmt.Errorf("shard: pod %d outside every cell", pod)
		}
		s := out[ci]
		if s == nil {
			s = topology.NewPlacement(pl.Job, pl.Demand)
			out[ci] = s
		}
		return s, nil
	}
	for _, n := range pl.Nodes {
		s, err := slice(placementLeaf(t, n) / t.LeavesPerPod)
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, n)
	}
	for _, u := range pl.LeafUps {
		s, err := slice(int(u.Leaf) / t.LeavesPerPod)
		if err != nil {
			return nil, err
		}
		s.LeafUps = append(s.LeafUps, u)
	}
	for _, u := range pl.SpineUps {
		s, err := slice(int(u.Pod))
		if err != nil {
			return nil, err
		}
		s.SpineUps = append(s.SpineUps, u)
	}
	return out, nil
}

// placementLeaf maps a placement node entry to its leaf: pending entries
// (never applied, encoded -(leaf+1)) carry the leaf directly; concrete IDs
// divide down.
func placementLeaf(t *topology.FatTree, n topology.NodeID) int {
	if n < 0 {
		return int(-n) - 1
	}
	return int(n) / t.NodesPerLeaf
}

func iota0(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
