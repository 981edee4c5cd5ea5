package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

// The remembered-summaries differential: a Scratch kept across a history of
// state changes rebuilds only the pods whose PodVersion moved, so it must
// answer every search exactly as a Scratch built fresh for that search — the
// same verdict, the same partition, the same budget spend — and the summaries
// it holds for a pod it considers current must equal a fresh derivation.

// summaryMismatch compares what sc remembers against a fresh Scratch
// summarizing every pod of the same (state, demand): each pod sc holds as
// current must match field for field; the raw cross-pod counts must equal
// the contributions of exactly the pods sc has summarized; and once every
// pod is current they, and the histograms if not stale, must match the fresh
// ones. It returns the first difference, or nil.
func summaryMismatch(sc *Scratch) error {
	st, t := sc.sumSt, sc.tree
	if st == nil {
		return nil
	}
	fresh := &Scratch{}
	fresh.ensure(t)
	fresh.syncState(st, sc.sumDemand)
	for p := 0; p < t.Pods; p++ {
		fresh.ensurePod(p)
	}
	fresh.ensureAggregates()

	spg := t.SpinesPerGroup + 2
	nFreeCnt := make([]int32, len(sc.nFreeCnt))
	spineRaw := make([]int32, len(sc.spinePopRaw))
	allCurrent := true
	for p := 0; p < t.Pods; p++ {
		if sc.podSeen[p] == 0 {
			allCurrent = false
			continue
		}
		nFreeCnt[sc.nFree[p]]++
		for i := 0; i < t.L2PerPod; i++ {
			spineRaw[i*spg+bits.OnesCount64(sc.spine[p*t.L2PerPod+i])]++
		}
		if sc.podSeen[p] != st.PodVersion(p)+1 {
			allCurrent = false
			continue
		}
		leaves := func(a []int32) []int32 { return a[p*t.LeavesPerPod : (p+1)*t.LeavesPerPod] }
		upl := func(a []uint64) []uint64 { return a[p*t.LeavesPerPod : (p+1)*t.LeavesPerPod] }
		l2 := func(a []uint64) []uint64 { return a[p*t.L2PerPod : (p+1)*t.L2PerPod] }
		hist := func(a []int32) []int32 { return a[p*(t.NodesPerLeaf+2) : (p+1)*(t.NodesPerLeaf+2)] }
		whole := func(s *Scratch) []int { return s.freeLeaves[p*t.LeavesPerPod : p*t.LeavesPerPod+s.nFree[p]] }
		switch {
		case !slices.Equal(leaves(sc.lfFree), leaves(fresh.lfFree)):
			return fmt.Errorf("pod %d: leaf free counts %v, fresh %v", p, leaves(sc.lfFree), leaves(fresh.lfFree))
		case !slices.Equal(upl(sc.lfUp), upl(fresh.lfUp)):
			return fmt.Errorf("pod %d: uplink masks %x, fresh %x", p, upl(sc.lfUp), upl(fresh.lfUp))
		case !slices.Equal(leaves(sc.lfCap), leaves(fresh.lfCap)):
			return fmt.Errorf("pod %d: leaf widths %v, fresh %v", p, leaves(sc.lfCap), leaves(fresh.lfCap))
		case !slices.Equal(hist(sc.capHist), hist(fresh.capHist)):
			return fmt.Errorf("pod %d: width histogram %v, fresh %v", p, hist(sc.capHist), hist(fresh.capHist))
		case !slices.Equal(whole(sc), whole(fresh)):
			return fmt.Errorf("pod %d: whole leaves %v, fresh %v", p, whole(sc), whole(fresh))
		case !slices.Equal(l2(sc.spine), l2(fresh.spine)):
			return fmt.Errorf("pod %d: spine masks %x, fresh %x", p, l2(sc.spine), l2(fresh.spine))
		case sc.minSpinePop[p] != fresh.minSpinePop[p]:
			return fmt.Errorf("pod %d: min spine popcount %d, fresh %d", p, sc.minSpinePop[p], fresh.minSpinePop[p])
		}
	}
	if !slices.Equal(sc.nFreeCnt, nFreeCnt) || !slices.Equal(sc.spinePopRaw, spineRaw) {
		return fmt.Errorf("raw cross-pod counts %v / %v, summarized pods add up to %v / %v",
			sc.nFreeCnt, sc.spinePopRaw, nFreeCnt, spineRaw)
	}
	if !allCurrent {
		return nil
	}
	if !slices.Equal(sc.nFreeCnt, fresh.nFreeCnt) || !slices.Equal(sc.spinePopRaw, fresh.spinePopRaw) {
		return fmt.Errorf("raw cross-pod counts %v / %v, fresh %v / %v",
			sc.nFreeCnt, sc.spinePopRaw, fresh.nFreeCnt, fresh.spinePopRaw)
	}
	if !sc.aggStale && (!slices.Equal(sc.nFreeHist, fresh.nFreeHist) || !slices.Equal(sc.spinePopCnt, fresh.spinePopCnt)) {
		return fmt.Errorf("cross-pod histograms %v / %v, fresh %v / %v",
			sc.nFreeHist, sc.spinePopCnt, fresh.nFreeHist, fresh.spinePopCnt)
	}
	return nil
}

// checkScratchPersistent replays a fuzz-chosen history on one state — node
// and link charges and releases, searches charged as placements, what-if
// transactions with searches inside that roll back (or commit), and every
// failure kind applied and recovered — optionally on a cell-restricted state
// and with link capacity above the demand. After every step it runs a probe
// search on the long-lived Scratch and on a fresh one and requires the same
// verdict, partition and budget spend, and it audits the long-lived
// Scratch's summaries against a fresh derivation.
func checkScratchPersistent(t *testing.T, data []byte) {
	fd := &byteFeed{data: data}
	tree := topology.MustNew([]int{4, 8, 16}[fd.next()%3])
	capacity := int32(1 + fd.next()%3)
	st := topology.NewState(tree, capacity)
	if fd.next()%3 == 0 {
		lo := fd.next() % tree.Pods
		st.RestrictToPods(lo, lo+1+fd.next()%(tree.Pods-lo))
	}
	kept := &Scratch{}
	var live []*topology.Placement
	job := topology.JobID(1)

	probe := func(what string) *topology.Placement {
		t.Helper()
		demand := int32(1 + fd.next()%int(capacity))
		// Sizes up to the free count: a larger one is refused before any
		// summary is read.
		size := 1 + (fd.next()<<8|fd.next())%max(1, st.FreeNodes())
		sparse := fd.next()%2 == 1
		p1, ok1, used1 := search(st, demand, size, sparse, DefaultSearchBudget, kept)
		p2, ok2, used2 := search(st, demand, size, sparse, DefaultSearchBudget, &Scratch{})
		if ok1 != ok2 || used1 != used2 {
			t.Fatalf("%s: size=%d demand=%d sparse=%v: kept scratch (ok=%v, %d steps), fresh (ok=%v, %d steps)",
				what, size, demand, sparse, ok1, used1, ok2, used2)
		}
		if ok1 && !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%s: size=%d demand=%d sparse=%v: partitions diverge\nkept:  %+v\nfresh: %+v",
				what, size, demand, sparse, p1, p2)
		}
		if err := summaryMismatch(kept); err != nil {
			t.Fatalf("%s: remembered summaries: %v", what, err)
		}
		if !ok1 {
			return nil
		}
		job++
		return p1.Placement(tree, job, demand)
	}
	// nodesOnly charges a few nodes of one leaf and no link.
	nodesOnly := func() *topology.Placement {
		leaf := fd.next() % tree.Leaves()
		n := min(1+fd.next()%tree.NodesPerLeaf, st.FreeInLeaf(leaf))
		if n == 0 {
			return nil
		}
		job++
		pl := topology.NewPlacement(job, 1)
		pl.AddLeafNodes(leaf, n)
		return pl
	}
	charge := func(pl *topology.Placement) {
		if pl != nil {
			pl.Apply(st)
			live = append(live, pl)
		}
	}
	release := func() {
		if len(live) > 0 {
			i := fd.next() % len(live)
			live[i].Release(st)
			live = slices.Delete(live, i, i+1)
		}
	}
	kinds := []func() topology.Failure{
		func() topology.Failure { return topology.NodeFailure(topology.NodeID(fd.next() % tree.Nodes())) },
		func() topology.Failure {
			return topology.LeafUplinkFailure(fd.next()%tree.Leaves(), fd.next()%tree.L2PerPod)
		},
		func() topology.Failure {
			return topology.SpineUplinkFailure(fd.next()%tree.Pods, fd.next()%tree.L2PerPod, fd.next()%tree.SpinesPerGroup)
		},
		func() topology.Failure { return topology.LeafSwitchFailure(fd.next() % tree.Leaves()) },
		func() topology.Failure { return topology.L2SwitchFailure(fd.next()%tree.Pods, fd.next()%tree.L2PerPod) },
		func() topology.Failure {
			return topology.SpineSwitchFailure(fd.next()%tree.L2PerPod, fd.next()%tree.SpinesPerGroup)
		},
	}

	for step := 0; step < 64 && (step < 8 || fd.i < len(fd.data)); step++ {
		op := fd.next() % 7
		switch op {
		case 0:
			charge(probe("allocate"))
		case 1:
			charge(nodesOnly())
		case 2:
			release()
		case 3: // a what-if: searches and a release inside a transaction
			st.Begin()
			var added []*topology.Placement
			before := slices.Clone(live)
			for k := fd.next() % 3; k >= 0; k-- {
				if pl := probe("in transaction"); pl != nil {
					pl.Apply(st)
					added = append(added, pl)
				}
			}
			if fd.next()%2 == 0 {
				release()
			}
			if fd.next()%4 == 0 {
				st.Commit()
				live = append(live, added...)
			} else {
				st.Rollback()
				live = before
			}
		case 4, 5: // fail one component of a random kind (refusals are fine)
			_ = kinds[fd.next()%len(kinds)]().Apply(st)
		case 6:
			if active := st.ActiveFailures(); len(active) > 0 {
				if err := active[fd.next()%len(active)].Revert(st); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		probe(fmt.Sprintf("step %d (op %d)", step, op))
	}
}

// FuzzScratchPersistent is the remembered-summaries differential under the
// fuzzer (see checkScratchPersistent).
func FuzzScratchPersistent(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 3, 9, 0, 4, 2, 1, 3, 5, 7, 5, 1, 2, 6, 2, 6, 0, 3, 3, 1, 0, 1})
	f.Add([]byte{2, 2, 0, 4, 5, 0, 1, 30, 0, 0, 200, 1, 3, 2, 1, 1, 9, 0, 17, 2, 4, 1, 5, 3, 3})
	f.Add([]byte{1, 1, 3, 3, 2, 1, 5, 5, 2, 2, 9, 5, 3, 4, 1, 40, 2, 0, 1, 6, 0, 6, 4, 0, 6})
	f.Fuzz(checkScratchPersistent)
}

// TestScratchPersistentMatchesFresh runs the same differential over seeded
// random histories, so the plain test suite covers far more of it than the
// fuzz corpus alone.
func TestScratchPersistentMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(448))
		rng.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkScratchPersistent(t, data) })
	}
}
