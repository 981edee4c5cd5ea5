package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

// reportCSV runs one experiment's CSV form through Report and parses it.
func reportCSV(t *testing.T, name string) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := Report(Config{Scale: 0.002, Out: &buf}, name, true); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFigure6CSVWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every trace and scheme")
	}
	rows := reportCSV(t, "fig6")
	if len(rows) != 1+9*len(Schemes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows[1:] {
		u, err := strconv.ParseFloat(r[2], 64)
		if err != nil || u < 0 || u > 1 {
			t.Fatalf("bad utilization cell %v", r)
		}
	}
}

func TestTable2CSVWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates Thunder three times")
	}
	if rows := reportCSV(t, "table2"); len(rows) != 1+3*6 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestTable3CSVWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four traces under four schemes")
	}
	rows := reportCSV(t, "table3")
	if len(rows) != 1+4*4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows[1:] {
		if _, err := strconv.ParseFloat(r[2], 64); err != nil {
			t.Fatalf("bad timing cell %v", r)
		}
	}
}

// TestReportRefusesWhatItCannotPrint pins the CSV rule: every -run value
// either honours -csv or refuses it, before simulating anything.
func TestReportRefusesWhatItCannotPrint(t *testing.T) {
	for _, c := range []struct {
		name   string
		csvOut bool
	}{{"all", true}, {"table1", true}, {"fig9", false}, {"fig9", true}} {
		var buf bytes.Buffer
		if err := Report(Config{Scale: 0.002, Out: &buf}, c.name, c.csvOut); err == nil || buf.Len() != 0 {
			t.Errorf("Report(%q, csv=%v) = %v after printing %d bytes; want a refusal and nothing printed",
				c.name, c.csvOut, err, buf.Len())
		}
	}
}
