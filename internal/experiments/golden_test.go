package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenScale keeps the printed-table goldens inside the tier-1 budget.
const goldenScale = 0.002

// TestPrintedTablesGolden pins the bytes cmd/experiments prints for every
// table: Table 1's text, and the text and CSV of Figures 6-8 and Tables 2-3.
// MeasureTime stays off, so Table 3 prints a deterministic zero per cell.
// The files under testdata/tables were recorded from the harness that gave
// every table its own fan-out, printer and CSV emitter (GOLDEN_REGEN=1
// rewrites them), so they prove that one grid, one text writer and one CSV
// writer print what those did. The grid is simulated once for all tables,
// as -run all does.
func TestPrintedTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every table's cells")
	}
	regen := os.Getenv("GOLDEN_REGEN") != ""
	check := func(file string, got []byte) {
		t.Helper()
		path := filepath.Join("testdata", "tables", file)
		if regen {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from its golden\ngot:\n%s\nwant:\n%s", file, got, want)
		}
	}

	var buf bytes.Buffer
	if err := Table1(Config{Scale: goldenScale, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	check("table1.txt", buf.Bytes())
	var tables []table
	for _, e := range experiments {
		tables = append(tables, e.tables(goldenScale)...)
	}
	g, err := Config{Scale: goldenScale, Workers: 2}.simulate(tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		for _, csvOut := range []bool{false, true} {
			buf.Reset()
			if err := e.write(&buf, g, goldenScale, csvOut); err != nil {
				t.Fatal(err)
			}
			file := e.name + ".txt"
			if csvOut {
				file = e.name + ".csv"
			}
			check(file, buf.Bytes())
		}
	}
}
