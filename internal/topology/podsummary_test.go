package topology

import (
	"reflect"
	"testing"
)

// TestSummarizePod pins one pod's summary against a hand-built state: a
// partly used leaf drops out of the leaf mask, a used spine uplink drops out
// of its group's mask, an untouched pod carries no spine masks at all, and
// PodSummaries is SummarizePod over the cell's pods in order.
func TestSummarizePod(t *testing.T) {
	tree := MustNew(8)
	st := NewState(tree, 1)
	st.RestrictToPods(1, 4)
	pl := NewPlacement(1, 1)
	pl.AddLeafNodes(tree.LeafIndex(2, 1), 1)
	pl.AddSpineUp(2, 3, 0)
	pl.Apply(st)

	full := tree.HalfMask()
	if got, want := st.SummarizePod(1), (PodSummary{Pod: 1, FreeLeaves: tree.LeavesPerPod, LeafMask: full}); !reflect.DeepEqual(got, want) {
		t.Fatalf("untouched pod: %+v, want %+v", got, want)
	}
	spines := []uint64{full, full, full, full &^ 1}
	want := PodSummary{Pod: 2, FreeLeaves: tree.LeavesPerPod - 1, LeafMask: full &^ 2, SpineFree: spines}
	if got := st.SummarizePod(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("used pod: %+v, want %+v", got, want)
	}
	if got := st.SummarizePod(0); got.FreeLeaves != 0 || got.SpineFree[0] != 0 {
		t.Fatalf("offline pod: %+v, want nothing free", got)
	}
	var cell []PodSummary
	for p := 1; p < 4; p++ {
		cell = append(cell, st.SummarizePod(p))
	}
	if got := st.PodSummaries(nil); !reflect.DeepEqual(got, cell) {
		t.Fatalf("PodSummaries %+v, want %+v", got, cell)
	}
}
