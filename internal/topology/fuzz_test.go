package topology

// FuzzStateFailRecover drives random interleavings of allocation mutators,
// spec-level fail/recover calls, and undo-journal transactions against one
// State and audits CheckInvariants after every operation — including its
// overlap-rule clause (a component is failed iff an active spec covers it),
// which is the oracle for the failure model: specs overlap freely here. The
// failure model routes through the same take/return mutators as allocations,
// so this exercises the sentinel-owner encoding, the incremental indices, and
// the journal against each other.

import (
	"testing"
)

func FuzzStateFailRecover(f *testing.F) {
	f.Add([]byte{0, 3, 6, 9, 10, 2, 11, 0})
	f.Add([]byte{6, 5, 7, 5, 10, 0, 10, 1, 10, 2, 10, 3, 10, 4, 10, 5})
	f.Add([]byte{0, 1, 0, 2, 2, 7, 4, 9, 8, 3, 9, 3, 1, 0, 3, 7, 5, 9})
	// Overlap: node 5, then leaf switch 1 over it, recovered switch first;
	// L2 switch 0/1 and spine switch 1/2 sharing an uplink, recovered in
	// injection order.
	f.Add([]byte{6, 5, 9, 1, 9, 1, 6, 5})
	f.Add([]byte{10, 0, 1, 10, 1, 2, 10, 0, 1, 10, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := MustNew(8)
		s := NewState(tr, 1)
		audit := func() {
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		// toggle recovers the spec if it is active, which must succeed, and
		// otherwise fails it, which is refused exactly when a job holds a
		// component no active spec has failed already — never because of
		// overlap with another spec.
		toggle := func(f Failure) {
			if s.FailureActive(f) {
				if err := f.Revert(s); err != nil {
					t.Fatalf("recover active %v: %v", f, err)
				}
				return
			}
			blocked := false
			for _, c := range s.components(f) {
				blocked = blocked || !s.failed(c) && !s.free(c)
			}
			if err := f.Apply(s); (err != nil) != blocked {
				t.Fatalf("fail %v with active %v: err=%v, blocked by a job=%v", f, s.ActiveFailures(), err, blocked)
			}
		}
		var takenNodes []NodeID
		var takenLeafUps [][2]int
		var takenSpineUps [][3]int
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return int(b)
		}
		for pos < len(data) {
			op, arg := next(), next()
			switch op % 12 {
			case 0: // take a free healthy node
				n := NodeID(arg % tr.Nodes())
				if s.Owner(n) == 0 {
					s.retakeNode(n, 42)
					takenNodes = append(takenNodes, n)
				}
			case 1: // return the most recently taken node
				if k := len(takenNodes); k > 0 {
					s.returnNode(takenNodes[k-1])
					takenNodes = takenNodes[:k-1]
				}
			case 2: // take a leaf uplink unit
				leaf, l2 := arg%tr.Leaves(), next()%tr.L2PerPod
				if s.LeafUpResidual(leaf, l2) > 0 {
					s.takeLeafUp(leaf, l2, 1)
					takenLeafUps = append(takenLeafUps, [2]int{leaf, l2})
				}
			case 3: // return a leaf uplink unit
				if k := len(takenLeafUps); k > 0 {
					u := takenLeafUps[k-1]
					s.returnLeafUp(u[0], u[1], 1)
					takenLeafUps = takenLeafUps[:k-1]
				}
			case 4: // take a spine uplink unit
				pod, l2, sp := arg%tr.Pods, next()%tr.L2PerPod, next()%tr.SpinesPerGroup
				if s.SpineUpResidual(pod, l2, sp) > 0 {
					s.takeSpineUp(pod, l2, sp, 1)
					takenSpineUps = append(takenSpineUps, [3]int{pod, l2, sp})
				}
			case 5: // return a spine uplink unit
				if k := len(takenSpineUps); k > 0 {
					u := takenSpineUps[k-1]
					s.returnSpineUp(u[0], u[1], u[2], 1)
					takenSpineUps = takenSpineUps[:k-1]
				}
			case 6: // fail/recover a node
				toggle(NodeFailure(NodeID(arg % tr.Nodes())))
			case 7: // fail/recover a leaf uplink
				toggle(LeafUplinkFailure(arg%tr.Leaves(), next()%tr.L2PerPod))
			case 8: // fail/recover a spine uplink
				toggle(SpineUplinkFailure(arg%tr.Pods, next()%tr.L2PerPod, next()%tr.SpinesPerGroup))
			case 9: // fail/recover a leaf switch
				toggle(LeafSwitchFailure(arg % tr.Leaves()))
			case 10: // fail/recover an L2 or spine switch
				if arg%2 == 0 {
					toggle(L2SwitchFailure(arg%tr.Pods, next()%tr.L2PerPod))
				} else {
					toggle(SpineSwitchFailure(arg%tr.L2PerPod, next()%tr.SpinesPerGroup))
				}
			case 11: // failures are barred inside transactions
				s.Begin()
				if err := NodeFailure(NodeID(arg % tr.Nodes())).Apply(s); err == nil {
					t.Fatal("node failure allowed inside a transaction")
				}
				n := NodeID(arg % tr.Nodes())
				if s.Owner(n) == 0 {
					s.retakeNode(n, 42) // rolled back below
				}
				s.Rollback()
			}
			audit()
		}

		// Recover every active spec, in injection order, and drain everything;
		// the state must come back pristine.
		for _, f := range s.ActiveFailures() {
			if err := f.Revert(s); err != nil {
				t.Fatalf("recover %v: %v", f, err)
			}
			audit()
		}
		for _, n := range takenNodes {
			s.returnNode(n)
		}
		for _, u := range takenLeafUps {
			s.returnLeafUp(u[0], u[1], 1)
		}
		for _, u := range takenSpineUps {
			s.returnSpineUp(u[0], u[1], u[2], 1)
		}
		audit()
		if s.Degraded() {
			t.Fatalf("still degraded after recovering everything: %d nodes, %d links",
				s.FailedNodes(), s.FailedLinks())
		}
		if s.FreeNodes() != tr.Nodes() {
			t.Fatalf("free nodes %d after full drain, want %d", s.FreeNodes(), tr.Nodes())
		}
	})
}
