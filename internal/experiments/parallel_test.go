package experiments

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

func TestWorkersDefaultsAndClamping(t *testing.T) {
	if w := (Config{}).workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := (Config{Workers: -3}).workers(); w < 1 {
		t.Fatalf("negative Workers gave %d", w)
	}
	if w := (Config{Workers: 7}).workers(); w != 7 {
		t.Fatalf("explicit Workers gave %d", w)
	}
}

func TestForEachCellCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		hits := make([]int, 100)
		err := Config{Workers: workers}.forEachCell(len(hits), func(i int) error {
			hits[i]++ // indices are distributed disjointly, so no lock needed
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestAllSimulatesEachCellOnce counts the cells -run all simulates: the
// experiments read 164 cells between them (what running each alone
// simulates), and 125 of them are distinct.
func TestAllSimulatesEachCellOnce(t *testing.T) {
	alone, all := 0, map[cell]bool{}
	for _, e := range experiments {
		own := map[cell]bool{}
		for _, tb := range e.tables(0.002) {
			for _, k := range tb.cells() {
				own[k], all[k] = true, true
			}
		}
		alone += len(own)
	}
	if alone != 164 || len(all) != 125 {
		t.Fatalf("experiments alone simulate %d cells, together %d; want 164 and 125", alone, len(all))
	}
}

// printBoth simulates an experiment's cells at a worker count and prints
// its text form followed by its CSV form.
func printBoth(t *testing.T, workers int, e experiment, scale float64) (grid, []byte) {
	t.Helper()
	g, err := Config{Scale: scale, Workers: workers}.simulate(e.tables(scale))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, csvOut := range []bool{false, true} {
		if err := e.write(&buf, g, scale, csvOut); err != nil {
			t.Fatal(err)
		}
	}
	return g, buf.Bytes()
}

// TestSerialAndParallelHarnessEmitIdenticalBytes is the harness's
// determinism contract: the text and CSV forms of every experiment must be
// the same bytes at Workers=1 (plain serial loop) and at a worker count
// high enough to force real interleaving. MeasureTime stays false so Table
// 3's cells are deterministic. Figure 8 is checked on Thunder alone (see
// TestFigure8DataSerialMatchesParallel): its Atlas runs cost two orders of
// magnitude more than everything else combined and exercise no extra
// harness code.
func TestSerialAndParallelHarnessEmitIdenticalBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the harness twice")
	}
	for _, e := range experiments {
		if e.name == "fig8" {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			_, serial := printBoth(t, 1, e, 0.002)
			_, parallel := printBoth(t, 8, e, 0.002)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("serial and parallel output differ\nserial:\n%s\nparallel:\n%s", serial, parallel)
			}
		})
	}
}

// TestFigure8DataSerialMatchesParallel pins Figure 8's Baseline-normalized
// view (Baseline cell first, scenario-major scheme cells, normalization
// after the pool) on Thunder, where worker count could matter: the grid
// and both printed forms must match.
func TestFigure8DataSerialMatchesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates Thunder 25 times, twice")
	}
	thunder := experiments[slices.IndexFunc(experiments, func(e experiment) bool { return e.name == "fig8" })]
	thunder.tables = func(scale float64) []table { return figure8(scale)[:1] }
	gs, serial := printBoth(t, 1, thunder, 0.002)
	gp, parallel := printBoth(t, 8, thunder, 0.002)
	if !reflect.DeepEqual(gs, gp) {
		t.Fatalf("serial and parallel Figure 8 grids differ\nserial:   %+v\nparallel: %+v", gs, gp)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("serial and parallel Figure 8 output differ\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
