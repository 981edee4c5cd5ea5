package topology

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func checkInv(t *testing.T, s *State) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestFailRecoverNode(t *testing.T) {
	tr := MustNew(8)
	s := NewState(tr, 1)
	v0 := s.Version()
	if err := NodeFailure(5).Apply(s); err != nil {
		t.Fatal(err)
	}
	if s.Version() == v0 {
		t.Fatal("failing a node did not bump the version")
	}
	if !s.NodeFailed(5) || s.Owner(5) != FailedOwner {
		t.Fatal("node 5 not marked failed")
	}
	if s.FreeNodes() != tr.Nodes()-1 || s.FailedNodes() != 1 || !s.Degraded() {
		t.Fatalf("counters: free=%d failed=%d", s.FreeNodes(), s.FailedNodes())
	}
	checkInv(t, s)

	// Errors: double-fail, recover a healthy node, fail an owned node.
	if err := NodeFailure(5).Apply(s); err == nil || !strings.Contains(err.Error(), "already failed") {
		t.Fatalf("double fail of node 5: %v", err)
	}
	if err := NodeFailure(6).Revert(s); err == nil || !strings.Contains(err.Error(), "not failed") {
		t.Fatalf("recover of a healthy node: %v", err)
	}
	s.retakeNode(7, 42)
	if err := NodeFailure(7).Apply(s); err == nil || !strings.Contains(err.Error(), "node 7 in use") {
		t.Fatalf("fail of an owned node: %v", err)
	}
	s.returnNode(7)
	checkInv(t, s)

	if err := NodeFailure(5).Revert(s); err != nil {
		t.Fatal(err)
	}
	if s.NodeFailed(5) || s.FreeNodes() != tr.Nodes() || s.Degraded() {
		t.Fatal("recover did not restore the node")
	}
	checkInv(t, s)
}

func TestFailRecoverLinks(t *testing.T) {
	tr := MustNew(8)
	s := NewState(tr, 1)
	if err := LeafUplinkFailure(3, 1).Apply(s); err != nil {
		t.Fatal(err)
	}
	if !s.LeafUplinkFailed(3, 1) || s.LeafUpResidual(3, 1) != 0 {
		t.Fatal("leaf uplink 3/1 not failed")
	}
	if m := s.LeafUpMask(3, 1); m&(1<<1) != 0 {
		t.Fatalf("failed uplink still available in mask %#x", m)
	}
	if err := SpineUplinkFailure(2, 0, 3).Apply(s); err != nil {
		t.Fatal(err)
	}
	if !s.SpineUplinkFailed(2, 0, 3) || s.SpineUpResidual(2, 0, 3) != 0 {
		t.Fatal("spine uplink 2/0/3 not failed")
	}
	if s.FailedLinks() != 2 || s.FailedLeafUplinks() != 1 || s.FailedSpineUplinks() != 1 {
		t.Fatalf("link counters: %d/%d/%d", s.FailedLinks(), s.FailedLeafUplinks(), s.FailedSpineUplinks())
	}
	checkInv(t, s)

	// A held link cannot fail.
	s.takeLeafUp(4, 0, 1)
	if err := LeafUplinkFailure(4, 0).Apply(s); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("fail of a held leaf uplink: %v", err)
	}
	s.returnLeafUp(4, 0, 1)

	if err := LeafUplinkFailure(3, 1).Revert(s); err != nil {
		t.Fatal(err)
	}
	if err := SpineUplinkFailure(2, 0, 3).Revert(s); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatal("state still degraded after recovering everything")
	}
	checkInv(t, s)
}

func TestFailRecoverSwitches(t *testing.T) {
	tr := MustNew(8)
	s := NewState(tr, 1)

	// Leaf switch: all nodes + all uplinks of leaf 2.
	if err := LeafSwitchFailure(2).Apply(s); err != nil {
		t.Fatal(err)
	}
	if s.FailedNodes() != tr.NodesPerLeaf || s.FailedLeafUplinks() != tr.L2PerPod {
		t.Fatalf("leaf switch failure: %d nodes, %d uplinks", s.FailedNodes(), s.FailedLeafUplinks())
	}
	if s.FullyFreeLeaf(2) || s.FreeInLeaf(2) != 0 {
		t.Fatal("failed leaf still looks available")
	}
	checkInv(t, s)
	if err := LeafSwitchFailure(2).Revert(s); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatal("still degraded after leaf switch recovery")
	}
	checkInv(t, s)

	// L2 switch 1 of pod 0: one leaf uplink per leaf of the pod plus its
	// spine uplinks.
	if err := L2SwitchFailure(0, 1).Apply(s); err != nil {
		t.Fatal(err)
	}
	if s.FailedLeafUplinks() != tr.LeavesPerPod || s.FailedSpineUplinks() != tr.SpinesPerGroup {
		t.Fatalf("L2 switch failure: %d leaf ups, %d spine ups", s.FailedLeafUplinks(), s.FailedSpineUplinks())
	}
	checkInv(t, s)

	// Overlapping spine switch (group 1 shares pod 0's spine uplinks).
	if err := SpineSwitchFailure(1, 2).Apply(s); err != nil {
		t.Fatal(err)
	}
	// Pod 0's uplink to (1,2) was already failed by the L2 switch; the other
	// pods' uplinks fail now.
	if want := tr.SpinesPerGroup + (tr.Pods - 1); s.FailedSpineUplinks() != want || s.FailedSwitches() != 2 {
		t.Fatalf("spine switch overlap: %d spine ups, want %d; %d switches", s.FailedSpineUplinks(), want, s.FailedSwitches())
	}
	checkInv(t, s)

	// Recovering the L2 switch leaves the shared uplink to the spine switch.
	if err := L2SwitchFailure(0, 1).Revert(s); err != nil {
		t.Fatal(err)
	}
	if !s.SpineUplinkFailed(0, 1, 2) || s.FailedSpineUplinks() != tr.Pods || s.FailedLeafUplinks() != 0 {
		t.Fatalf("after the L2 switch recovered: shared uplink failed=%v, %d spine ups, %d leaf ups",
			s.SpineUplinkFailed(0, 1, 2), s.FailedSpineUplinks(), s.FailedLeafUplinks())
	}
	checkInv(t, s)
	if err := SpineSwitchFailure(1, 2).Revert(s); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() || s.FailedLinks() != 0 || s.FailedSwitches() != 0 {
		t.Fatalf("still degraded: %d links", s.FailedLinks())
	}
	checkInv(t, s)
}

func TestFailSwitchAllOrNothing(t *testing.T) {
	tr := MustNew(8)
	s := NewState(tr, 1)
	// A job on leaf 0 blocks the leaf switch and leaves nothing half-failed.
	s.takeNodes(0, 1, 9)
	if err := LeafSwitchFailure(0).Apply(s); err == nil {
		t.Fatal("leaf switch failed with an owned node")
	}
	if s.Degraded() {
		t.Fatal("rejected switch failure left partial failure state")
	}
	checkInv(t, s)

	// A held spine uplink blocks both its L2 switch and its spine switch.
	s.takeSpineUp(1, 0, 0, 1)
	if err := L2SwitchFailure(1, 0).Apply(s); err == nil {
		t.Fatal("L2 switch failed with a held spine uplink")
	}
	if err := SpineSwitchFailure(0, 0).Apply(s); err == nil {
		t.Fatal("spine switch failed with a held uplink")
	}
	if s.Degraded() {
		t.Fatal("rejected switch failure left partial failure state")
	}
	checkInv(t, s)
}

func TestFailBarredInTransactions(t *testing.T) {
	tr := MustNew(8)
	s := NewState(tr, 1)
	s.Begin()
	if err := NodeFailure(0).Apply(s); err == nil {
		t.Fatal("node failure allowed inside a transaction")
	}
	if err := LeafUplinkFailure(0, 0).Apply(s); err == nil {
		t.Fatal("leaf uplink failure allowed inside a transaction")
	}
	s.Rollback()
	if err := NodeFailure(0).Apply(s); err != nil {
		t.Fatal(err)
	}
	if err := func() error { s.Begin(); defer s.Rollback(); return NodeFailure(0).Revert(s) }(); err == nil {
		t.Fatal("node recovery allowed inside a transaction")
	}
	if err := NodeFailure(0).Revert(s); err != nil {
		t.Fatal(err)
	}
	checkInv(t, s)
}

func TestCloneCopiesFailures(t *testing.T) {
	tr := MustNew(8)
	s := NewState(tr, 1)
	if err := NodeFailure(3).Apply(s); err != nil {
		t.Fatal(err)
	}
	if err := LeafUplinkFailure(1, 0).Apply(s); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if !c.NodeFailed(3) || !c.LeafUplinkFailed(1, 0) || c.FailedNodes() != 1 || c.FailedLinks() != 1 ||
		!reflect.DeepEqual(c.ActiveFailures(), s.ActiveFailures()) {
		t.Fatal("clone lost failure state")
	}
	checkInv(t, c)
	// Divergence after clone: recovering on the clone leaves the original.
	if err := NodeFailure(3).Revert(c); err != nil {
		t.Fatal(err)
	}
	if !s.NodeFailed(3) || !s.FailureActive(NodeFailure(3)) {
		t.Fatal("recovery on clone leaked into the original")
	}
	checkInv(t, s)
	checkInv(t, c)
}

func TestFailureSpecRoundTrip(t *testing.T) {
	tr := MustNew(8)
	s := NewState(tr, 1)
	specs := []Failure{
		NodeFailure(17),
		LeafUplinkFailure(5, 2),
		SpineUplinkFailure(2, 1, 3),
		LeafSwitchFailure(3),
		L2SwitchFailure(2, 0),
		SpineSwitchFailure(1, 1),
	}
	for _, f := range specs {
		if err := f.Validate(tr); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if err := f.Apply(s); err != nil {
			t.Fatalf("apply %v: %v", f, err)
		}
		checkInv(t, s)
	}
	if !s.Degraded() {
		t.Fatal("not degraded after six failures")
	}
	for i := len(specs) - 1; i >= 0; i-- {
		if err := specs[i].Revert(s); err != nil {
			t.Fatalf("revert %v: %v", specs[i], err)
		}
		checkInv(t, s)
	}
	if s.Degraded() {
		t.Fatal("still degraded after reverting everything")
	}
	// Bounds violations are rejected.
	for _, bad := range []Failure{
		NodeFailure(NodeID(tr.Nodes())),
		LeafUplinkFailure(tr.Leaves(), 0),
		SpineUplinkFailure(0, 0, tr.SpinesPerGroup),
		LeafSwitchFailure(-1),
		L2SwitchFailure(tr.Pods, 0),
		SpineSwitchFailure(0, -1),
	} {
		if err := bad.Validate(tr); err == nil {
			t.Fatalf("Validate accepted %v", bad)
		}
	}
}

// TestFailureIntersects exercises the placement-intersection predicate the
// engine uses to decide which running jobs a failure takes down.
func TestFailureIntersects(t *testing.T) {
	tr := MustNew(8)
	p := NewPlacement(1, 1)
	p.Nodes = []NodeID{NodeID(0), NodeID(1)} // leaf 0
	p.AddLeafUp(0, 2)
	p.AddSpineUp(0, 2, 1)

	cases := []struct {
		f    Failure
		want bool
	}{
		{NodeFailure(0), true},
		{NodeFailure(2), false},
		{LeafUplinkFailure(0, 2), true},
		{LeafUplinkFailure(0, 1), false},
		{SpineUplinkFailure(0, 2, 1), true},
		{SpineUplinkFailure(0, 2, 0), false},
		{LeafSwitchFailure(0), true},
		{LeafSwitchFailure(1), false},
		{L2SwitchFailure(0, 2), true},
		{L2SwitchFailure(0, 0), false},
		{L2SwitchFailure(1, 2), false},
		{SpineSwitchFailure(2, 1), true},
		{SpineSwitchFailure(2, 0), false},
	}
	for _, c := range cases {
		if got := c.f.Intersects(tr, p); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.f, got, c.want)
		}
	}

	// Pending entries intersect node failures on their leaf (conservative).
	q := NewPlacement(2, 1)
	q.AddLeafNodes(3, 2)
	if !NodeFailure(NodeID(3*tr.NodesPerLeaf)).Intersects(tr, q) {
		t.Error("pending nodes should intersect node failures on their leaf")
	}
	if NodeFailure(0).Intersects(tr, q) {
		t.Error("pending nodes on leaf 3 should not intersect node 0")
	}
}

// allFailures enumerates every valid spec of every kind straight off
// kindTable, so a new table row is swept by the tests below automatically.
func allFailures(t *FatTree) []Failure {
	bounds := [numFields]int{t.Nodes(), t.Leaves(), t.Pods, t.L2PerPod, t.L2PerPod, t.SpinesPerGroup}
	var out []Failure
	for k, row := range kindTable {
		ids := make([]int, len(row.ids))
		var rec func(i int)
		rec = func(i int) {
			if i == len(ids) {
				out = append(out, spec(FailureKind(k), ids...))
				return
			}
			for ids[i] = 0; ids[i] < bounds[row.ids[i]]; ids[i]++ {
				rec(i + 1)
			}
		}
		rec(0)
	}
	return out
}

// primitives lists every node, leaf uplink and spine uplink of the tree.
func primitives(t *FatTree) []Failure {
	var out []Failure
	for _, f := range allFailures(t) {
		if f.Kind <= FailureSpineUplink {
			out = append(out, f)
		}
	}
	return out
}

// TestComponentsAgreeWithCovers pins the enumerator and the predicate against
// each other, which is what engine.Fail relies on when it releases the jobs
// Intersects names and then expects Apply to find every component free: for
// every spec of every kind, on the whole tree and on a two-pod cell,
// components yields the expected number of distinct primitives, each one is
// covered, and no other in-cell primitive of the tree is.
func TestComponentsAgreeWithCovers(t *testing.T) {
	for _, radix := range []int{4, 8} {
		tr := MustNew(radix)
		for _, cell := range [][2]int{{0, tr.Pods}, {1, 3}} {
			t.Run(fmt.Sprintf("radix=%d/cell=%v", radix, cell), func(t *testing.T) {
				s := NewState(tr, 1)
				s.RestrictToPods(cell[0], cell[1])
				inCell := func(f Failure) bool {
					pod, _ := f.PodOf(tr)
					return pod >= cell[0] && pod < cell[1]
				}
				perSwitch := map[FailureKind]int{
					FailureLeafSwitch: tr.NodesPerLeaf + tr.L2PerPod,
					FailureL2Switch:   tr.LeavesPerPod + tr.SpinesPerGroup,
				}
				all := primitives(tr)
				for _, f := range allFailures(tr) {
					want := 1
					switch {
					case f.Kind == FailureSpineSwitch:
						want = cell[1] - cell[0]
					case !inCell(f):
						want = 0
					case perSwitch[f.Kind] != 0:
						want = perSwitch[f.Kind]
					}
					yielded := map[Failure]bool{}
					for _, c := range s.components(f) {
						yielded[c] = true
					}
					if len(yielded) != want || len(s.components(f)) != want {
						t.Fatalf("%v: %d components (%d distinct), want %d", f, len(s.components(f)), len(yielded), want)
					}
					for _, c := range all {
						if covered := inCell(c) && f.covers(tr, c); covered != yielded[c] {
							t.Fatalf("%v: component %v yielded=%v but covered=%v", f, c, yielded[c], covered)
						}
					}
					// PodOf is where every component lives, or "every pod".
					pod, local := f.PodOf(tr)
					pods := map[int]bool{}
					for c := range yielded {
						cp, _ := c.PodOf(tr)
						pods[cp] = true
					}
					if local && want > 0 && (len(pods) != 1 || !pods[pod]) || !local && len(pods) != cell[1]-cell[0] {
						t.Fatalf("%v: PodOf = %d, %v but its components live in pods %v", f, pod, local, pods)
					}
				}
			})
		}
	}
}

// TestFailureSyntaxFromTheTable round-trips every spec through the three
// spellings the table defines (String/ParseFailure, the JSON wire form, the
// kind name) and pins that fields which do not identify the kind never make
// two specs differ.
func TestFailureSyntaxFromTheTable(t *testing.T) {
	tr := MustNew(4)
	for _, f := range allFailures(tr) {
		fields := strings.Fields(f.String())
		if back, err := ParseFailure(fields[0], fields[1:]); err != nil || back != f {
			t.Fatalf("ParseFailure(%q) = %v, %v", f, back, err)
		}
		if k, err := ParseFailureKind(f.Kind.String()); err != nil || k != f.Kind {
			t.Fatalf("ParseFailureKind(%q) = %v, %v", f.Kind, k, err)
		}
		// Every field on the wire; the ones that do not identify the kind
		// carry a 7 that must be dropped.
		body := fmt.Sprintf(`{"kind":%q`, f.Kind)
		for fd, name := range fieldNames {
			v := 7
			if slices.Contains(kindTable[f.Kind].ids, field(fd)) {
				v = f.vals()[fd]
			}
			body += fmt.Sprintf(`,%q:%d`, name, v)
		}
		var back Failure
		if err := json.Unmarshal([]byte(body+"}"), &back); err != nil || back != f {
			t.Fatalf("json %s = %v, %v", body, back, err)
		}
	}

	var a, b Failure
	if err := json.Unmarshal([]byte(`{"kind":"node","node":5,"leaf":3}`), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"kind":"node","node":5}`), &b); err != nil {
		t.Fatal(err)
	}
	if a != b || a != NodeFailure(5) {
		t.Fatalf("extra wire field changed the spec: %+v vs %+v", a, b)
	}
	s := NewState(tr, 1)
	noisy := Failure{Kind: FailureNode, Node: 5, Leaf: 3, Spine: 1}
	if err := noisy.Apply(s); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveFailures(); len(got) != 1 || got[0] != NodeFailure(5) || !s.FailureActive(noisy) {
		t.Fatalf("active set %v after applying %+v", got, noisy)
	}
	if err := NodeFailure(5).Apply(s); err == nil {
		t.Fatal("the same node failed twice under two spellings")
	}
	if err := noisy.Revert(s); err != nil || s.Degraded() {
		t.Fatalf("revert under the noisy spelling: %v, degraded=%v", err, s.Degraded())
	}
	if !noisy.Intersects(tr, &Placement{Nodes: []NodeID{5}}) {
		t.Fatal("Intersects compared the non-identifying fields")
	}

	for _, bad := range []string{
		`{"kind":"volcano"}`, `{"node":5}`, `{"kind":"node","nonsense":1}`, `{"kind":"node","node":"x"}`,
		`{"kind":"node","node":4294967301}`, `[]`,
	} {
		if err := json.Unmarshal([]byte(bad), &a); err == nil {
			t.Errorf("json %s accepted as %v", bad, a)
		}
	}
	for _, bad := range [][]string{{"volcano", "1"}, {"node"}, {"node", "1", "2"}, {"node", "x"}, {"node", "4294967301"}, {""}} {
		if f, err := ParseFailure(bad[0], bad[1:]); err == nil {
			t.Errorf("ParseFailure(%q) accepted as %v", bad, f)
		}
	}
	unknown := Failure{Kind: numKinds + 3, Node: 1}
	if got := unknown.String(); got != "kind(9)" {
		t.Errorf("unknown kind prints %q", got)
	}
	if unknown.Validate(tr) == nil || unknown.Apply(s) == nil || unknown.Revert(s) == nil || s.FailureActive(unknown) {
		t.Error("a spec of unknown kind was accepted")
	}
}

// TestOverlapAnyOrder is the overlap rule end to end: for pairs and a triple
// of specs that share components, every injection order is accepted, after
// every recovery exactly the components some remaining spec covers are still
// failed, and every recovery order ends pristine.
func TestOverlapAnyOrder(t *testing.T) {
	tr := MustNew(8)
	all := primitives(tr)
	for _, specs := range [][]Failure{
		{NodeFailure(5), LeafSwitchFailure(1)},
		{L2SwitchFailure(0, 1), SpineSwitchFailure(1, 2)},
		{SpineUplinkFailure(2, 3, 1), L2SwitchFailure(2, 3), SpineSwitchFailure(3, 1)},
		{LeafUplinkFailure(4, 0), LeafSwitchFailure(4), L2SwitchFailure(1, 0)},
	} {
		for _, in := range permutations(len(specs)) {
			for _, out := range permutations(len(specs)) {
				s := NewState(tr, 1)
				for _, i := range in {
					if err := specs[i].Apply(s); err != nil {
						t.Fatalf("%v, inject order %v: apply %v: %v", specs, in, specs[i], err)
					}
					checkInv(t, s)
				}
				active := map[int]bool{}
				for i := range specs {
					active[i] = true
				}
				for _, i := range out {
					if err := specs[i].Revert(s); err != nil {
						t.Fatalf("%v, recover order %v: revert %v: %v", specs, out, specs[i], err)
					}
					delete(active, i)
					checkInv(t, s)
					for _, c := range all {
						want := false
						for j := range active {
							want = want || specs[j].covers(tr, c)
						}
						if got := s.failed(c); got != want || s.free(c) == want {
							t.Fatalf("%v, after recovering %v of order %v: %v failed=%v free=%v, want failed=%v",
								specs, specs[i], out, c, got, s.free(c), want)
						}
					}
				}
				if s.Degraded() || s.ActiveFailures() != nil || s.FreeNodes() != tr.Nodes() || s.FailedNodes()+s.FailedLinks() != 0 {
					t.Fatalf("%v in %v out %v: not pristine", specs, in, out)
				}
			}
		}
	}
}

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestHealthyCloneCarriesNoFailureState pins that the failure model costs a
// healthy state nothing: a healed state has no active list again, and Clone
// allocates for the list only while there is one.
func TestHealthyCloneCarriesNoFailureState(t *testing.T) {
	s := NewState(MustNew(8), 1)
	if err := NodeFailure(1).Apply(s); err != nil {
		t.Fatal(err)
	}
	if err := NodeFailure(1).Revert(s); err != nil {
		t.Fatal(err)
	}
	if s.failures != nil || s.Clone().failures != nil {
		t.Fatal("a healed state keeps an active list")
	}
	// The State and its eleven arrays, as before the failure model existed,
	// plus the per-pod versions (podVer), which every state carries.
	healthy := testing.AllocsPerRun(20, func() { s.Clone() })
	if healthy != 13 {
		t.Fatalf("Clone of a healthy state allocates %v times, want 13", healthy)
	}
	if err := NodeFailure(1).Apply(s); err != nil {
		t.Fatal(err)
	}
	if degraded := testing.AllocsPerRun(20, func() { s.Clone() }); degraded != healthy+1 {
		t.Fatalf("Clone allocates %v healthy and %v degraded, want one more for the active list", healthy, degraded)
	}
}
