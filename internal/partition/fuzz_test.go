package partition_test

// FuzzVerifyPartition generates structured partitions from fuzz bytes —
// first a shape that should be legal, then an optional corrupting mutation —
// and checks that Verify never panics, that accepted partitions apply
// cleanly to a pristine state, and that the Jigsaw search on a randomly
// degraded fabric only returns partitions that Verify, avoid every failed
// resource, and apply cleanly.

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/topology"
)

// byteFeed deals deterministic values from the fuzz input, zero-padding past
// the end.
type byteFeed struct {
	data []byte
	pos  int
}

func (b *byteFeed) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	v := int(b.data[b.pos])
	b.pos++
	return v
}

// buildPartition constructs a mostly-legal partition shape from the feed.
func buildPartition(tr *topology.FatTree, feed *byteFeed) *partition.Partition {
	nl := 1 + feed.next()%tr.NodesPerLeaf
	lt := 1 + feed.next()%tr.LeavesPerPod
	full := 1 + feed.next()%3
	if full > tr.Pods {
		full = tr.Pods
	}
	p := &partition.Partition{NL: nl, LT: lt}
	start := feed.next() % tr.L2PerPod
	for j := 0; j < nl; j++ {
		p.S = append(p.S, (start+j)%tr.L2PerPod)
	}
	sort.Ints(p.S)

	leafStart := feed.next() % tr.LeavesPerPod
	leaves := func(count, remN int) []partition.LeafAlloc {
		var ls []partition.LeafAlloc
		for j := 0; j < count; j++ {
			ls = append(ls, partition.LeafAlloc{Leaf: (leafStart + j) % tr.LeavesPerPod, N: nl})
		}
		if remN > 0 {
			ls = append(ls, partition.LeafAlloc{Leaf: (leafStart + count) % tr.LeavesPerPod, N: remN})
		}
		return ls
	}

	podStart := feed.next() % tr.Pods
	single := full == 1 && feed.next()%2 == 0
	if single {
		remN := feed.next() % nl // 0 = no remainder leaf
		if lt+1 > tr.LeavesPerPod {
			remN = 0
		}
		p.Trees = []partition.TreeAlloc{{Pod: podStart, Leaves: leaves(lt, remN)}}
		if remN > 0 {
			p.Sr = append([]int(nil), p.S[:remN]...)
		}
		return p
	}

	for j := 0; j < full; j++ {
		p.Trees = append(p.Trees, partition.TreeAlloc{Pod: (podStart + j) % tr.Pods, Leaves: leaves(lt, 0)})
	}
	lrT := feed.next() % lt // full leaves in the remainder tree
	remN := 0
	if lrT > 0 || feed.next()%2 == 0 {
		remN = feed.next() % nl
	}
	if lrT*nl+remN >= lt*nl {
		remN = 0
	}
	if lrT > 0 || remN > 0 {
		p.Trees = append(p.Trees, partition.TreeAlloc{
			Pod: (podStart + full) % tr.Pods, Leaves: leaves(lrT, remN), Remainder: true,
		})
		if remN > 0 {
			p.Sr = append([]int(nil), p.S[:remN]...)
		}
	}
	if len(p.Trees) > 1 {
		spineStart := feed.next() % tr.SpinesPerGroup
		p.SpineSet = map[int][]int{}
		for _, i := range p.S {
			var ss []int
			for j := 0; j < lt; j++ {
				ss = append(ss, (spineStart+j)%tr.SpinesPerGroup)
			}
			sort.Ints(ss)
			p.SpineSet[i] = ss
		}
		if n := len(p.Trees); p.Trees[n-1].Remainder {
			srMask := map[int]bool{}
			for _, i := range p.Sr {
				srMask[i] = true
			}
			p.SpineSetR = map[int][]int{}
			for _, i := range p.S {
				want := lrT
				if srMask[i] {
					want++
				}
				p.SpineSetR[i] = append([]int(nil), p.SpineSet[i][:want]...)
			}
		}
	}
	return p
}

// mutate optionally corrupts one aspect of the partition so the fuzzer
// exercises Verify's rejection paths too.
func mutate(p *partition.Partition, feed *byteFeed) {
	switch feed.next() % 8 {
	case 1:
		p.Trees[0].Leaves[0].N++
	case 2:
		if len(p.S) > 1 {
			p.S[0], p.S[1] = p.S[1], p.S[0]
		}
	case 3:
		p.S = append(p.S, p.S[0])
	case 4:
		p.Trees[0].Pod = p.Trees[len(p.Trees)-1].Pod
	case 5:
		if p.SpineSet != nil {
			p.SpineSet[p.S[0]] = p.SpineSet[p.S[0]][1:]
		}
	case 6:
		p.Trees[0].Remainder = true
	case 7:
		p.Trees[0].Leaves[0].Leaf = -1
	}
}

// degrade fails a handful of resources picked by the feed and returns true
// if anything was taken down.
func degrade(t *testing.T, s *topology.State, feed *byteFeed) bool {
	tr := s.Tree
	n := feed.next() % 4
	degraded := false
	for j := 0; j < n; j++ {
		var err error
		switch feed.next() % 4 {
		case 0:
			err = topology.NodeFailure(topology.NodeID(feed.next() % tr.Nodes())).Apply(s)
		case 1:
			err = topology.LeafUplinkFailure(feed.next()%tr.Leaves(), feed.next()%tr.L2PerPod).Apply(s)
		case 2:
			err = topology.SpineUplinkFailure(feed.next()%tr.Pods, feed.next()%tr.L2PerPod, feed.next()%tr.SpinesPerGroup).Apply(s)
		case 3:
			err = topology.LeafSwitchFailure(feed.next() % tr.Leaves()).Apply(s)
		}
		if err == nil {
			degraded = true
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("degrade: %v", err)
	}
	return degraded
}

func FuzzVerifyPartition(f *testing.F) {
	f.Add([]byte{4, 2, 1, 0, 0, 0, 1, 0, 0, 9})
	f.Add([]byte{2, 3, 2, 1, 1, 0, 2, 1, 1, 0, 0, 17, 3, 1, 60})
	f.Add([]byte{8, 4, 3, 7, 2, 1, 1, 2, 2, 5, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := topology.MustNew(8)
		feed := &byteFeed{data: data}

		p := buildPartition(tr, feed)
		mutate(p, feed)
		if err := p.Verify(tr); err == nil {
			// Accepted shapes must be chargeable against a pristine state.
			s := topology.NewState(tr, 1)
			pl := p.Placement(tr, 7, 1)
			pl.Apply(s)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("accepted partition applied dirty: %v\n%+v", err, p)
			}
		}

		// The Jigsaw search on a degraded fabric must only produce verified
		// partitions that dodge every failed resource.
		s := topology.NewState(tr, 1)
		degrade(t, s, feed)
		size := 1 + feed.next()%tr.Nodes()
		sp, ok := core.Search(s, 1, size, feed.next()%2 == 0, core.DefaultSearchBudget, nil)
		if !ok {
			return
		}
		if sp.Size() != size {
			t.Fatalf("search returned %d nodes for size %d", sp.Size(), size)
		}
		if err := sp.Verify(tr); err != nil {
			t.Fatalf("search partition fails Verify on degraded state: %v\n%+v", err, sp)
		}
		pl := sp.Placement(tr, 9, 1)
		for _, n := range pl.Nodes {
			if n >= 0 && s.NodeFailed(n) {
				t.Fatalf("search placed on failed node %d", n)
			}
		}
		for _, u := range pl.LeafUps {
			if s.LeafUplinkFailed(int(u.Leaf), int(u.L2)) {
				t.Fatalf("search placed on failed leaf uplink %d/%d", u.Leaf, u.L2)
			}
		}
		for _, u := range pl.SpineUps {
			if s.SpineUplinkFailed(int(u.Pod), int(u.L2), int(u.Spine)) {
				t.Fatalf("search placed on failed spine uplink %d/%d/%d", u.Pod, u.L2, u.Spine)
			}
		}
		pl.Apply(s)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("degraded search placement applied dirty: %v", err)
		}
	})
}
