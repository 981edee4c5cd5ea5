// Package lcs implements LC+S, the paper's theoretical bounding scheme
// (Section 5.2.3): least-constrained scheduling with link sharing. Jobs may
// take any placement that is legal under the formal conditions of Section
// 3.2 — including general per-leaf node counts at three levels, which Jigsaw
// deliberately restricts — and links are shared fractionally: each job
// carries an average per-link bandwidth demand, and a link is usable while
// the sum of demands stays under 80% of its peak bandwidth (Section 5.4.2).
//
// The paper marks LC+S impractical for real systems because per-job
// bandwidth needs are not available to real schedulers, and because its
// search space is so large that a per-job timeout is required. Wall-clock
// timeouts are machine-dependent and nondeterministic, so this
// implementation substitutes a fixed search-step budget with the same
// effect: allocations are usually found quickly, and pathological searches
// are cut off (the job simply stays queued). See DESIGN.md.
package lcs

import (
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/topology"
)

// Bandwidth model, in units of 0.1 GB/s (Section 5.4.2): peak link bandwidth
// 5 GB/s, total utilization of each link capped at 80%, and four job classes
// from 0.5 to 2.0 GB/s per link.
const (
	// LinkCapacity is the usable per-link bandwidth: 80% of 5 GB/s.
	LinkCapacity = 40
	// DefaultBudget bounds search steps per allocation attempt, standing in
	// for the paper's 5-second wall-clock timeout.
	DefaultBudget = 60_000
	// maxSolutionsPerPod caps the per-pod sub-solution enumeration in the
	// general three-level search.
	maxSolutionsPerPod = 6
)

// classes are the per-link bandwidth demands jobs are randomly assigned to.
var classes = [4]int32{5, 10, 15, 20}

// DemandFor returns the bandwidth class of a job. The assignment is a
// deterministic hash of the job ID so that repeated runs (and cloned
// allocators) agree.
func DemandFor(job topology.JobID) int32 {
	x := uint64(job) * 0x9e3779b97f4a7c15
	x ^= x >> 33
	return classes[x%4]
}

// leafInfo is the per-leaf view the sub-solution enumeration works from.
type leafInfo struct {
	up   uint64
	free int
}

// subSolution is one way to carve lt leaves with nL nodes each out of a pod.
type subSolution struct {
	leaves []int  // within-pod leaf indices
	mask   uint64 // intersection of the leaves' free-uplink masks
}

// searchScratch holds the reusable buffers and in-flight parameters of the
// general three-level search, so per-candidate enumeration stops allocating
// on the hot path (the kernels are methods on Allocator rather than
// closures, and buffers persist across Allocate calls). Success-path
// partition assembly still allocates — it happens once per placement, not
// once per candidate.
type searchScratch struct {
	// core backs the shared two-level kernel (core.FindTwoLevel).
	core core.Scratch

	// In-flight search parameters for the general three-level kernels.
	demand              int32
	T, lt, nl, lrT, nrL int

	info      []leafInfo
	spine     []uint64 // flat per-(pod, L2) free-spine masks, stride L2PerPod
	f         []uint64 // running per-L2 spine intersection over chosen pods
	inUse     []bool
	chosen    []int // pods
	chosenSol []int // solution index per chosen pod
	enum      []int // chosen-leaf stack of the sub-solution enumeration
	sols      [][]subSolution
	rsols     []subSolution // remainder-pod enumeration buffer
}

// Allocator implements alloc.Allocator for LC+S.
type Allocator struct {
	alloc.Base
	budget int

	// sc backs the allocator's searches; Clone deliberately gives the clone
	// a fresh zero scratch (scratch must never be shared).
	sc searchScratch
}

// NewAllocator returns an LC+S allocator for a pristine tree.
func NewAllocator(tree *topology.FatTree) *Allocator {
	return &Allocator{Base: alloc.NewBase(topology.NewState(tree, LinkCapacity)), budget: DefaultBudget}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "LC+S" }

// Clone implements alloc.Allocator.
func (a *Allocator) Clone() alloc.Allocator {
	return &Allocator{Base: alloc.NewBase(a.State().Clone()), budget: a.budget}
}

// FeasibilityClass implements alloc.FeasibilityClasser: two same-size jobs
// in different bandwidth classes can get different verdicts against the same
// state, so negative-feasibility memoization must key on the class too.
func (a *Allocator) FeasibilityClass(job topology.JobID) int32 { return DemandFor(job) }

// Allocate implements alloc.Allocator.
func (a *Allocator) Allocate(job topology.JobID, size int) (*topology.Placement, bool) {
	p, ok := a.findPartition(job, size)
	if !ok {
		return nil, false
	}
	return a.commit(p, job, DemandFor(job))
}

// FindJobPartition implements alloc.PartitionFinder: it searches for a
// least-constrained partition of the given size at the job's bandwidth
// class, without charging it against the state. The returned partition is
// an independent copy the caller may retain.
func (a *Allocator) FindJobPartition(job topology.JobID, size int) (*partition.Partition, bool) {
	p, ok := a.findPartition(job, size)
	if !ok {
		return nil, false
	}
	return p.Clone(), true
}

// findPartition is the search behind Allocate/FindJobPartition. Two-level
// results alias the allocator's scratch (valid until the next search), which
// Allocate consumes immediately; FindJobPartition clones before returning.
func (a *Allocator) findPartition(job topology.JobID, size int) (*partition.Partition, bool) {
	t := a.Tree()
	if size < 1 || size > a.State().FreeNodes() {
		return nil, false
	}
	demand := DemandFor(job)
	steps := a.budget

	// Two-level (single-subtree) placements first, over all factorizations,
	// sharing Jigsaw's search at the job's bandwidth demand.
	maxNL := t.NodesPerLeaf
	if size < maxNL {
		maxNL = size
	}
	for nL := maxNL; nL >= 1; nL-- {
		lt := size / nL
		nrL := size % nL
		need := lt
		if nrL > 0 {
			need++
		}
		if lt < 1 || need > t.LeavesPerPod {
			continue
		}
		for pod := 0; pod < t.Pods; pod++ {
			steps--
			if steps <= 0 {
				return nil, false
			}
			// Per-pod counter skip (exactly FindTwoLevel's own early-out,
			// hoisted above the call): the pod must hold size free nodes.
			if a.State().FreeInPod(pod) < size {
				continue
			}
			// nil step budget: LC+S charges its budget per pod probe (the
			// steps-- above), not per backtracking extension, and changing
			// that granularity would change which jobs a budget-exhausted
			// search admits (the golden ledgers pin today's schedules).
			if p, ok := core.FindTwoLevel(a.State(), demand, pod, lt, nL, nrL, nil, &a.sc.core); ok {
				return p, true
			}
		}
	}

	// General three-level placements: unlike Jigsaw, any per-leaf node
	// count nL is allowed (the least-constrained space).
	for nL := t.NodesPerLeaf; nL >= 1; nL-- {
		for lt := t.LeavesPerPod; lt >= 1; lt-- {
			nT := lt * nL
			T := size / nT
			nrT := size % nT
			if T < 1 || (T == 1 && nrT == 0) {
				continue
			}
			need := T
			if nrT > 0 {
				need++
			}
			if need > t.Pods {
				continue
			}
			if p, ok := a.findGeneral(demand, T, lt, nL, nrT/nL, nrT%nL, &steps); ok {
				return p, true
			}
			if steps <= 0 {
				return nil, false
			}
		}
	}
	return nil, false
}

func (a *Allocator) commit(p *partition.Partition, job topology.JobID, demand int32) (*topology.Placement, bool) {
	pl := p.Placement(a.Tree(), job, demand)
	pl.Apply(a.State())
	return pl, true
}

// ensureScratch sizes the three-level search buffers once per allocator.
func (a *Allocator) ensureScratch() {
	sc := &a.sc
	if sc.info != nil {
		return
	}
	t := a.Tree()
	sc.info = make([]leafInfo, t.LeavesPerPod)
	sc.spine = make([]uint64, t.Pods*t.L2PerPod)
	sc.f = make([]uint64, t.L2PerPod)
	sc.inUse = make([]bool, t.Pods)
	sc.chosen = make([]int, 0, t.Pods)
	sc.chosenSol = make([]int, 0, t.Pods)
	sc.enum = make([]int, 0, t.LeavesPerPod)
	sc.sols = make([][]subSolution, t.Pods)
}

// appendSol records the enumeration stack as a sub-solution, reusing the
// destination slot's backing array when one is available.
func appendSol(dst []subSolution, chosen []int, mask uint64) []subSolution {
	if n := len(dst); n < cap(dst) {
		dst = dst[:n+1]
		dst[n].leaves = append(dst[n].leaves[:0], chosen...)
		dst[n].mask = mask
		return dst
	}
	return append(dst, subSolution{leaves: append([]int(nil), chosen...), mask: mask})
}

// podSolutions enumerates up to maxSolutionsPerPod sub-solutions for a pod
// into dst (reusing its slots' backing arrays).
func (a *Allocator) podSolutions(dst []subSolution, demand int32, pod, lt, nL int, steps *int) []subSolution {
	st, t := a.State(), a.Tree()
	sc := &a.sc
	for l := 0; l < t.LeavesPerPod; l++ {
		leafIdx := t.LeafIndex(pod, l)
		sc.info[l] = leafInfo{up: st.LeafUpMask(leafIdx, demand), free: st.FreeInLeaf(leafIdx)}
	}
	sc.enum = sc.enum[:0]
	return a.enumSols(dst[:0], lt, nL, steps, 0, t.HalfMask())
}

// enumSols is podSolutions' backtracking extension over leaves from start
// onward with running uplink intersection m.
func (a *Allocator) enumSols(dst []subSolution, lt, nL int, steps *int, start int, m uint64) []subSolution {
	sc := &a.sc
	if len(dst) >= maxSolutionsPerPod || *steps <= 0 {
		return dst
	}
	if len(sc.enum) == lt {
		return appendSol(dst, sc.enum, m)
	}
	t := a.Tree()
	for l := start; l <= t.LeavesPerPod-(lt-len(sc.enum)); l++ {
		*steps--
		if *steps <= 0 {
			return dst
		}
		if sc.info[l].free < nL {
			continue
		}
		nm := m & sc.info[l].up
		if bits.OnesCount64(nm) < nL {
			continue
		}
		sc.enum = append(sc.enum, l)
		dst = a.enumSols(dst, lt, nL, steps, l+1, nm)
		sc.enum = sc.enum[:len(sc.enum)-1]
		if len(dst) >= maxSolutionsPerPod {
			return dst
		}
	}
	return dst
}

// findGeneral searches for a least-constrained three-level partition:
// T full trees of lt leaves x nL nodes sharing a common L2 set S (|S| = nL)
// and per-L2 spine sets of size lt, plus an optional remainder tree with
// LrT full leaves and an nrL-node remainder leaf.
func (a *Allocator) findGeneral(demand int32, T, lt, nL, LrT, nrL int, steps *int) (*partition.Partition, bool) {
	t := a.Tree()
	a.ensureScratch()
	sc := &a.sc
	sc.demand, sc.T, sc.lt, sc.nl, sc.lrT, sc.nrL = demand, T, lt, nL, LrT, nrL

	// Per-pod spine masks and sub-solutions.
	for p := 0; p < t.Pods; p++ {
		sbase := p * t.L2PerPod
		for i := 0; i < t.L2PerPod; i++ {
			sc.spine[sbase+i] = a.State().SpineMask(p, i, demand)
		}
		sc.sols[p] = a.podSolutions(sc.sols[p], demand, p, lt, nL, steps)
		if *steps <= 0 {
			return nil, false
		}
	}

	sc.chosen = sc.chosen[:0]
	sc.chosenSol = sc.chosenSol[:0]
	for i := range sc.f {
		sc.f[i] = t.HalfMask()
	}
	clear(sc.inUse)
	return a.genRec(steps, 0, t.HalfMask())
}

// genViable returns the mask of L2 indices usable as S members given the
// current S-mask intersection.
func (a *Allocator) genViable(sMask uint64) uint64 {
	sc := &a.sc
	var v uint64
	for i := 0; i < a.Tree().L2PerPod; i++ {
		if sMask&(1<<i) != 0 && bits.OnesCount64(sc.f[i]) >= sc.lt {
			v |= 1 << i
		}
	}
	return v
}

// genRec extends the chosen-pod set with pods from start onward.
func (a *Allocator) genRec(steps *int, start int, sMask uint64) (*partition.Partition, bool) {
	t := a.Tree()
	sc := &a.sc
	if len(sc.chosen) == sc.T {
		return a.genFinish(steps, sMask)
	}
	for p := start; p <= t.Pods-(sc.T-len(sc.chosen)); p++ {
		for si := range sc.sols[p] {
			*steps--
			if *steps <= 0 {
				return nil, false
			}
			nm := sMask & sc.sols[p][si].mask
			if bits.OnesCount64(nm) < sc.nl {
				continue
			}
			var saved [64]uint64
			sbase := p * t.L2PerPod
			for i := 0; i < t.L2PerPod; i++ {
				saved[i] = sc.f[i]
				sc.f[i] &= sc.spine[sbase+i]
			}
			if bits.OnesCount64(a.genViable(nm)) >= sc.nl {
				sc.chosen = append(sc.chosen, p)
				sc.chosenSol = append(sc.chosenSol, si)
				sc.inUse[p] = true
				if part, ok := a.genRec(steps, p+1, nm); ok {
					return part, true
				}
				sc.inUse[p] = false
				sc.chosen = sc.chosen[:len(sc.chosen)-1]
				sc.chosenSol = sc.chosenSol[:len(sc.chosenSol)-1]
			}
			for i := 0; i < t.L2PerPod; i++ {
				sc.f[i] = saved[i]
			}
		}
	}
	return nil, false
}

// genFinish completes the general allocation once T pods are chosen. The
// partition it assembles is freshly allocated (success path).
func (a *Allocator) genFinish(steps *int, sMask uint64) (*partition.Partition, bool) {
	t := a.Tree()
	sc := &a.sc
	lt, nL, LrT, nrL := sc.lt, sc.nl, sc.lrT, sc.nrL
	hasRem := LrT > 0 || nrL > 0
	remPod, remLeaf := -1, -1
	var remFull []int
	var sIdx, srIdx []int
	if !hasRem {
		v := a.genViable(sMask)
		if bits.OnesCount64(v) < nL {
			return nil, false
		}
		sIdx = lowestBitsOf(v, nL)
	} else {
		// Try every unused pod as the remainder tree.
		for p := 0; p < t.Pods && remPod < 0; p++ {
			if sc.inUse[p] {
				continue
			}
			if LrT == 0 {
				sc.rsols = appendSol(sc.rsols[:0], nil, t.HalfMask())
			} else {
				sc.rsols = a.podSolutions(sc.rsols, sc.demand, p, LrT, nL, steps)
			}
			if *steps <= 0 {
				return nil, false
			}
			sbase := p * t.L2PerPod
			for _, rs := range sc.rsols {
				// A: indices usable as S members against this pod.
				var amask uint64
				for i := 0; i < t.L2PerPod; i++ {
					bit := uint64(1) << i
					if sMask&bit == 0 || rs.mask&bit == 0 {
						continue
					}
					if bits.OnesCount64(sc.f[i]) < lt {
						continue
					}
					if bits.OnesCount64(sc.f[i]&sc.spine[sbase+i]) < LrT {
						continue
					}
					amask |= bit
				}
				if bits.OnesCount64(amask) < nL {
					continue
				}
				if nrL == 0 {
					remPod = p
					remFull = rs.leaves
					sIdx = lowestBitsOf(amask, nL)
					break
				}
				// Remainder leaf: free nodes and uplinks into B, where B
				// also supports one extra spine downlink. The remainder
				// tree's full leaves are marked in a bitmask (within-pod
				// leaf indices never exceed 64 for any supported radix).
				var taken uint64
				for _, l := range rs.leaves {
					taken |= 1 << l
				}
				for l := 0; l < t.LeavesPerPod; l++ {
					if taken&(1<<l) != 0 {
						continue
					}
					leafIdx := t.LeafIndex(p, l)
					if a.State().FreeInLeaf(leafIdx) < nrL {
						continue
					}
					up := a.State().LeafUpMask(leafIdx, sc.demand)
					var bmask uint64
					for i := 0; i < t.L2PerPod; i++ {
						bit := uint64(1) << i
						if amask&bit != 0 && up&bit != 0 &&
							bits.OnesCount64(sc.f[i]&sc.spine[sbase+i]) >= LrT+1 {
							bmask |= bit
						}
					}
					if bits.OnesCount64(bmask) < nrL {
						continue
					}
					srIdx = lowestBitsOf(bmask, nrL)
					var srm uint64
					for _, i := range srIdx {
						srm |= 1 << i
					}
					rest := lowestBitsOf(amask&^srm, nL-nrL)
					sIdx = append(append([]int{}, srIdx...), rest...)
					sortInts(sIdx)
					remPod, remLeaf = p, l
					remFull = rs.leaves
					break
				}
				if remPod >= 0 {
					break
				}
			}
		}
		if remPod < 0 {
			return nil, false
		}
	}

	// Spine sets for i in S.
	var srm uint64
	for _, i := range srIdx {
		srm |= 1 << i
	}
	rbase := 0
	if remPod >= 0 {
		rbase = remPod * t.L2PerPod
	}
	spineSet := map[int][]int{}
	var spineSetR map[int][]int
	if hasRem {
		spineSetR = map[int][]int{}
	}
	for _, i := range sIdx {
		if !hasRem {
			spineSet[i] = lowestBitsOf(sc.f[i], lt)
			continue
		}
		req := LrT
		if srm&(1<<i) != 0 {
			req++
		}
		rsel := lowestBitsOf(sc.f[i]&sc.spine[rbase+i], req)
		var rm uint64
		for _, s := range rsel {
			rm |= 1 << s
		}
		all := append(append([]int{}, rsel...), lowestBitsOf(sc.f[i]&^rm, lt-req)...)
		sortInts(all)
		spineSet[i] = all
		spineSetR[i] = rsel
	}

	trees := make([]partition.TreeAlloc, 0, sc.T+1)
	for k, p := range sc.chosen {
		leaves := make([]partition.LeafAlloc, 0, lt)
		for _, l := range sc.sols[p][sc.chosenSol[k]].leaves {
			leaves = append(leaves, partition.LeafAlloc{Leaf: l, N: nL})
		}
		trees = append(trees, partition.TreeAlloc{Pod: p, Leaves: leaves})
	}
	if hasRem {
		leaves := make([]partition.LeafAlloc, 0, LrT+1)
		for _, l := range remFull {
			leaves = append(leaves, partition.LeafAlloc{Leaf: l, N: nL})
		}
		if nrL > 0 {
			leaves = append(leaves, partition.LeafAlloc{Leaf: remLeaf, N: nrL})
		}
		trees = append(trees, partition.TreeAlloc{Pod: remPod, Leaves: leaves, Remainder: true})
	}
	return &partition.Partition{
		NL: nL, LT: lt, S: sIdx, Sr: srIdx,
		SpineSet: spineSet, SpineSetR: spineSetR,
		Trees: trees,
	}, true
}

func lowestBitsOf(m uint64, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		i := bits.TrailingZeros64(m)
		if i == 64 {
			panic("lcs: lowestBitsOf underflow")
		}
		out = append(out, i)
		m &^= 1 << i
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
