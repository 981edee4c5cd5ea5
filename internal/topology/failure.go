package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// Failure model: one kind table, one component enumerator, one overlap rule.
//
// kindTable says how each of the six failure domains is spelled and
// identified; components lists the primitive resources (nodes, leaf uplinks,
// spine uplinks) a Failure spec takes down inside the state's cell, and covers
// is the matching membership test. The State owns the list of active specs,
// and one rule relates it to the fabric: a component is failed iff an active
// spec covers it. Apply takes the components no active spec has failed
// already, all or nothing; Revert returns the ones no remaining spec covers.
// Specs may overlap freely and be recovered in any order; once all are
// recovered the state is pristine.
//
// A failed component is held the way an allocated one is (a node by the
// sentinel owner FailedOwner, a link by consuming its full residual) through
// the ordinary take/return mutators, so the indices, the version counter,
// Clone and every allocator need no special case. A component can fail only
// while no job holds it: engine.Fail first releases every job whose placement
// Intersects the spec. Apply and Revert are barred inside a transaction:
// failures are ground truth, not what-if hypotheses, and stay out of the
// undo journal.

// FailedOwner is the sentinel JobID owning every failed node (real jobs are
// positive, zero is free).
const FailedOwner JobID = -1

// FailureKind enumerates the failure domains of a three-level fat-tree: three
// primitive components, then the three switches made of them.
type FailureKind uint8

const (
	FailureNode        FailureKind = iota // one compute node
	FailureLeafUplink                     // one leaf->L2 link
	FailureSpineUplink                    // one L2->spine link
	FailureLeafSwitch                     // a leaf switch: its nodes and all its uplinks
	FailureL2Switch                       // an L2 switch of a pod: the leaf uplinks into it, its spine uplinks
	FailureSpineSwitch                    // a spine switch of a group: its uplink in every pod
	numKinds
)

// field indexes the six integers that can identify a failure; fieldNames,
// Failure.vals and Validate's bounds are all in this order.
type field uint8

const (
	fNode field = iota
	fLeaf
	fPod
	fL2
	fGroup // the L2 index the spine group hangs off
	fSpine
	numFields
	everyPod = numFields // kindTable.pod of a kind that spans all pods
)

var fieldNames = [numFields]string{"node", "leaf", "pod", "l2", "group", "spine"}

type kindRow struct {
	name     string
	ids      []field
	isSwitch bool
	pod      field
}

// kindTable is the one description of the six failure domains: the wire name
// (HTTP API and fail-trace files), the fields identifying an instance in
// spec-argument order, whether it is a whole switch, and the field locating
// its pod. Names, parsing, printing, validation, JSON decoding and lane
// routing are read off it; a new domain is one row here plus its arm in
// components and in covers.
var kindTable = [numKinds]kindRow{
	FailureNode:        {"node", []field{fNode}, false, fNode},
	FailureLeafUplink:  {"leaf-uplink", []field{fLeaf, fL2}, false, fLeaf},
	FailureSpineUplink: {"spine-uplink", []field{fPod, fL2, fSpine}, false, fPod},
	FailureLeafSwitch:  {"leaf-switch", []field{fLeaf}, true, fLeaf},
	FailureL2Switch:    {"l2-switch", []field{fPod, fL2}, true, fPod},
	FailureSpineSwitch: {"spine-switch", []field{fGroup, fSpine}, true, everyPod},
}

// row is the kind's table row; an unknown kind identifies nothing.
func (k FailureKind) row() *kindRow {
	if k >= numKinds {
		return &kindRow{name: fmt.Sprintf("kind(%d)", int(k))}
	}
	return &kindTable[k]
}

// String returns the kind's wire name.
func (k FailureKind) String() string { return k.row().name }

// ParseFailureKind inverts FailureKind.String.
func ParseFailureKind(s string) (FailureKind, error) {
	for k, row := range kindTable {
		if row.name == s {
			return FailureKind(k), nil
		}
	}
	return 0, fmt.Errorf("topology: unknown failure kind %q", s)
}

// Failure is a failure spec: a kind and the integers identifying one instance
// of it. Only the kind's identifying fields (kindTable) mean anything; the
// constructors and decoders leave the rest zero and the State ignores them.
type Failure struct {
	Kind                        FailureKind
	Node                        NodeID
	Leaf, Pod, L2, Group, Spine int
}

// Constructors for the six failure domains, identifiers in kindTable order.
func NodeFailure(n NodeID) Failure               { return spec(FailureNode, int(n)) }
func LeafUplinkFailure(leaf, l2 int) Failure     { return spec(FailureLeafUplink, leaf, l2) }
func SpineUplinkFailure(pod, l2, sp int) Failure { return spec(FailureSpineUplink, pod, l2, sp) }
func LeafSwitchFailure(leaf int) Failure         { return spec(FailureLeafSwitch, leaf) }
func L2SwitchFailure(pod, l2 int) Failure        { return spec(FailureL2Switch, pod, l2) }
func SpineSwitchFailure(group, sp int) Failure   { return spec(FailureSpineSwitch, group, sp) }

// spec builds the kind's canonical Failure (every other field zero) from its
// identifiers in kindTable order, and ids is its inverse.
func spec(k FailureKind, ids ...int) Failure {
	var v [numFields]int
	for i, fd := range k.row().ids {
		v[fd] = ids[i]
	}
	return Failure{k, NodeID(v[fNode]), v[fLeaf], v[fPod], v[fL2], v[fGroup], v[fSpine]}
}

func (f Failure) vals() [numFields]int {
	return [numFields]int{int(f.Node), f.Leaf, f.Pod, f.L2, f.Group, f.Spine}
}

func (f Failure) ids() (ids []int) {
	for _, fd := range f.Kind.row().ids {
		ids = append(ids, f.vals()[fd])
	}
	return ids
}

// canonical zeroes the non-identifying fields, so equal specs are equal values.
func (f Failure) canonical() Failure { return spec(f.Kind, f.ids()...) }

// String renders the spec in the fail-trace file syntax, "<kind> <ids...>".
func (f Failure) String() string {
	s := f.Kind.String()
	for _, v := range f.ids() {
		s += " " + strconv.Itoa(v)
	}
	return s
}

// ParseFailure inverts Failure.String over whitespace-split fields: a kind
// and its integer identifiers ("node" "17"; "spine-uplink" "2" "0" "3").
func ParseFailure(kind string, args []string) (Failure, error) {
	k, err := ParseFailureKind(kind)
	if err != nil {
		return Failure{}, err
	}
	if want := len(k.row().ids); len(args) != want {
		return Failure{}, fmt.Errorf("topology: %s takes %d arguments, got %d", k, want, len(args))
	}
	ids := make([]int, len(args))
	for i, a := range args {
		n, err := strconv.ParseInt(a, 10, 32)
		if err != nil {
			return Failure{}, fmt.Errorf("topology: bad argument %q for %s", a, k)
		}
		ids[i] = int(n)
	}
	return spec(k, ids...), nil
}

// UnmarshalJSON decodes the HTTP wire form {"kind":"<kind>","<field>":n,...};
// the keys are the Go field names in lower case, as in fieldNames. Unknown
// keys are rejected; fields that do not identify the kind are dropped.
func (f *Failure) UnmarshalJSON(b []byte) error {
	var w struct {
		Kind                        string
		Node                        NodeID
		Leaf, Pod, L2, Group, Spine int
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	k, err := ParseFailureKind(w.Kind)
	if err != nil {
		return err
	}
	*f = Failure{k, w.Node, w.Leaf, w.Pod, w.L2, w.Group, w.Spine}.canonical()
	return nil
}

// Validate bounds-checks the spec's identifying fields against the tree.
func (f Failure) Validate(t *FatTree) error {
	if f.Kind >= numKinds {
		return fmt.Errorf("topology: unknown failure kind %d", f.Kind)
	}
	bounds := [numFields]int{t.Nodes(), t.Leaves(), t.Pods, t.L2PerPod, t.L2PerPod, t.SpinesPerGroup}
	for _, fd := range f.Kind.row().ids {
		if v := f.vals()[fd]; v < 0 || v >= bounds[fd] {
			return fmt.Errorf("topology: %v: %s outside [0, %d)", f, fieldNames[fd], bounds[fd])
		}
	}
	return nil
}

// PodOf returns the pod the failure domain lives in; ok is false for a kind
// that spans every pod (a spine switch serves one L2 position of all pods).
func (f Failure) PodOf(t *FatTree) (pod int, ok bool) {
	fd := f.Kind.row().pod
	if fd == everyPod {
		return 0, false
	}
	perPod := [...]int{fNode: t.PodNodes(), fLeaf: t.LeavesPerPod, fPod: 1}
	return f.vals()[fd] / perPod[fd], true
}

// components lists what the spec takes down in this state as primitive specs
// (a primitive is its own only component), clipped to the state's cell: other
// shards apply their own slice of a cell-spanning failure. f is canonical.
func (s *State) components(f Failure) []Failure {
	t := s.Tree
	lo, hi := s.CellRange()
	var out []Failure
	add := func(c Failure) {
		if pod, _ := c.PodOf(t); pod >= lo && pod < hi {
			out = append(out, c)
		}
	}
	switch f.Kind {
	case FailureLeafSwitch:
		for slot := 0; slot < t.NodesPerLeaf; slot++ {
			add(NodeFailure(NodeID(f.Leaf*t.NodesPerLeaf + slot)))
		}
		for i := 0; i < t.L2PerPod; i++ {
			add(LeafUplinkFailure(f.Leaf, i))
		}
	case FailureL2Switch:
		for l := 0; l < t.LeavesPerPod; l++ {
			add(LeafUplinkFailure(t.LeafIndex(f.Pod, l), f.L2))
		}
		for sp := 0; sp < t.SpinesPerGroup; sp++ {
			add(SpineUplinkFailure(f.Pod, f.L2, sp))
		}
	case FailureSpineSwitch:
		for pod := lo; pod < hi; pod++ {
			add(SpineUplinkFailure(pod, f.Group, f.Spine))
		}
	default:
		add(f)
	}
	return out
}

// covers reports whether the spec takes the primitive component c down,
// anywhere in the tree. f and c must be canonical.
func (f Failure) covers(t *FatTree, c Failure) bool {
	switch f.Kind {
	case FailureLeafSwitch:
		return c.Kind == FailureNode && t.NodeLeaf(c.Node) == f.Leaf ||
			c.Kind == FailureLeafUplink && c.Leaf == f.Leaf
	case FailureL2Switch:
		return c.Kind == FailureLeafUplink && t.LeafPod(c.Leaf) == f.Pod && c.L2 == f.L2 ||
			c.Kind == FailureSpineUplink && c.Pod == f.Pod && c.L2 == f.L2
	case FailureSpineSwitch:
		return c.Kind == FailureSpineUplink && c.L2 == f.Group && c.Spine == f.Spine
	}
	return f == c
}

// Intersects reports whether the placement touches any resource the failure
// takes down. A pending node entry (never applied) could land on any slot of
// its leaf, so it counts as touching the failure if any node of the leaf does.
func (f Failure) Intersects(t *FatTree, p *Placement) bool {
	f = f.canonical()
	return slices.ContainsFunc(p.Nodes, func(n NodeID) bool {
		end := n + 1
		if leaf, ok := pendingLeaf(n); ok {
			n = NodeID(leaf * t.NodesPerLeaf)
			end = n + NodeID(t.NodesPerLeaf)
		}
		for ; n < end; n++ {
			if f.covers(t, NodeFailure(n)) {
				return true
			}
		}
		return false
	}) || slices.ContainsFunc(p.LeafUps, func(u LeafUpRef) bool {
		return f.covers(t, LeafUplinkFailure(int(u.Leaf), int(u.L2)))
	}) || slices.ContainsFunc(p.SpineUps, func(u SpineUpRef) bool {
		return f.covers(t, SpineUplinkFailure(int(u.Pod), int(u.L2), int(u.Spine)))
	})
}

// Apply makes the spec active and takes every component of it that no active
// spec has failed already, all or nothing: if a job holds one of them nothing
// changes. Overlapping an active spec is fine; repeating one is refused.
func (f Failure) Apply(s *State) error {
	if err := f.Validate(s.Tree); err != nil {
		return err
	}
	f = f.canonical()
	comps := s.components(f)
	switch {
	case s.txnActive:
		return fmt.Errorf("topology: %v: fail inside an active transaction", f)
	case s.FailureActive(f):
		return fmt.Errorf("topology: %v: already failed", f)
	case len(comps) == 0:
		return fmt.Errorf("topology: %v: outside this state's cell", f)
	}
	for _, c := range comps {
		if !s.failed(c) && !s.free(c) {
			return fmt.Errorf("topology: %v: %v in use", f, c)
		}
	}
	for _, c := range comps {
		if !s.failed(c) {
			s.hold(c, +1)
		}
	}
	s.failures = append(s.failures, f)
	return nil
}

// Revert makes an active spec inactive and returns to service every
// component of it that no remaining active spec covers.
func (f Failure) Revert(s *State) error {
	f = f.canonical()
	switch {
	case s.txnActive:
		return fmt.Errorf("topology: %v: recover inside an active transaction", f)
	case !s.FailureActive(f):
		return fmt.Errorf("topology: %v: not failed", f)
	}
	s.failures = slices.DeleteFunc(s.failures, func(a Failure) bool { return a == f })
	if len(s.failures) == 0 {
		s.failures = nil
	}
	for _, c := range s.components(f) {
		if !s.failed(c) {
			s.hold(c, -1)
		}
	}
	return nil
}

// failed is the overlap rule: a primitive component is failed in this state
// iff an active spec covers it and it lies in the state's cell.
func (s *State) failed(c Failure) bool {
	for _, a := range s.failures {
		if a.covers(s.Tree, c) {
			pod, _ := c.PodOf(s.Tree)
			lo, hi := s.CellRange()
			return pod >= lo && pod < hi
		}
	}
	return false
}

// free reports whether nothing holds any share of the component.
func (s *State) free(c Failure) bool {
	switch c.Kind {
	case FailureNode:
		return s.nodeOwner[c.Node] == 0
	case FailureLeafUplink:
		return s.LeafUpResidual(c.Leaf, c.L2) == s.Capacity
	}
	return s.SpineUpResidual(c.Pod, c.L2, c.Spine) == s.Capacity
}

// hold hands a free component to the failure (n = +1) or a failed one back
// to service (n = -1) through the ordinary take/return mutators.
func (s *State) hold(c Failure, n int) {
	s.failedCount[c.Kind] += n
	switch {
	case n > 0 && c.Kind == FailureNode:
		s.retakeNode(c.Node, FailedOwner)
	case n > 0 && c.Kind == FailureLeafUplink:
		s.takeLeafUp(c.Leaf, c.L2, s.Capacity)
	case n > 0:
		s.takeSpineUp(c.Pod, c.L2, c.Spine, s.Capacity)
	case c.Kind == FailureNode:
		s.returnNode(c.Node)
	case c.Kind == FailureLeafUplink:
		s.returnLeafUp(c.Leaf, c.L2, s.Capacity)
	default:
		s.returnSpineUp(c.Pod, c.L2, c.Spine, s.Capacity)
	}
}
