package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// A table is one printed block of an experiment: a title, a left column of
// row labels, and one observation per (row, column), read from one grid
// cell. The text form prints the observations as fixed-width right-aligned
// cells; the CSV form prints one line per observation, for plotting tools.
type table struct {
	title      string
	key        string // leading CSV field (Figures 7 and 8: the trace); "" for none
	corner     string // heading of the left column
	rows, cols []string
	labelW     int // text widths: the left column,
	cellW      int // and every other column
	// at is the cell behind (row r, column c); base, when set, is the cell
	// every value is divided by.
	at       func(r, c int) cell
	base     *cell
	read     func(rec record, c int) []float64 // an observation's values, from its cell's record
	text     func(v []float64) string          // one text cell
	csv      func(v float64) string            // one CSV value; nil means fmtF
	colMajor bool                              // CSV goes column by column, column label first (Table 3)
}

func (t *table) cells() []cell {
	var ks []cell
	if t.base != nil {
		ks = append(ks, *t.base)
	}
	for r := range t.rows {
		for c := range t.cols {
			ks = append(ks, t.at(r, c))
		}
	}
	return ks
}

func (t *table) value(g grid, r, c int) []float64 {
	v := t.read(g[t.at(r, c)], c)
	if t.base != nil {
		b := t.read(g[*t.base], c)
		for i := range v {
			v[i] /= b[i]
		}
	}
	return v
}

func (t *table) writeText(w io.Writer, g grid) {
	fmt.Fprintln(w, t.title)
	fmt.Fprintf(w, "%-*s", t.labelW, t.corner)
	for _, col := range t.cols {
		fmt.Fprintf(w, " %*s", t.cellW, col)
	}
	fmt.Fprintln(w)
	for r, row := range t.rows {
		fmt.Fprintf(w, "%-*s", t.labelW, row)
		for c := range t.cols {
			fmt.Fprintf(w, " %*s", t.cellW, t.text(t.value(g, r, c)))
		}
		fmt.Fprintln(w)
	}
}

func (t *table) writeCSV(cw *csv.Writer, g grid) {
	format := t.csv
	if format == nil {
		format = fmtF
	}
	outer, inner := len(t.rows), len(t.cols)
	if t.colMajor {
		outer, inner = inner, outer
	}
	for i := 0; i < outer; i++ {
		for j := 0; j < inner; j++ {
			r, c := i, j
			if t.colMajor {
				r, c = j, i
			}
			fields := []string{t.key, t.rows[r], t.cols[c]}
			if t.colMajor {
				fields[1], fields[2] = fields[2], fields[1]
			}
			if t.key == "" {
				fields = fields[1:]
			}
			for _, v := range t.value(g, r, c) {
				fields = append(fields, format(v))
			}
			cw.Write(fields) // a write error sticks; writeCSV's caller reads it
		}
	}
}

func fmtF(v float64) string { return fmt.Sprintf("%.6g", v) }

// An experiment is one of the paper's tables or figures: its tables at a
// scale, and the header of its CSV form.
type experiment struct {
	name   string // the cmd/experiments -run value
	header []string
	tables func(scale float64) []table
}

// experiments are the simulated tables and figures in paper order.
var experiments = []experiment{
	{"fig6", []string{"trace", "scheme", "utilization"}, figure6},
	{"table2", []string{"scheme", "bucket", "count"}, table2},
	{"fig7", []string{"trace", "scenario", "scheme", "norm_all", "norm_large"}, figure7},
	{"fig8", []string{"trace", "scenario", "scheme", "norm_makespan"}, figure8},
	{"table3", []string{"trace", "scheme", "seconds_per_job"}, table3},
}

// write prints the experiment's tables from the grid, as text or as CSV.
func (e experiment) write(w io.Writer, g grid, scale float64, csvOut bool) error {
	cw := csv.NewWriter(w)
	if csvOut {
		cw.Write(e.header)
	}
	for _, t := range e.tables(scale) {
		if csvOut {
			t.writeCSV(cw, g)
		} else {
			t.writeText(w, g)
		}
	}
	cw.Flush()
	return cw.Error()
}

// figure6 is average system utilization: every trace under every scheme.
func figure6(scale float64) []table {
	var traces []string
	for _, tr := range trace.All(scale) {
		traces = append(traces, tr.Name)
	}
	return []table{{
		title:  fmt.Sprintf("Figure 6: Average system utilization (%%), scale %.2f", scale),
		corner: "Trace", rows: traces, cols: Schemes, labelW: 10, cellW: 9,
		at:   func(r, c int) cell { return cell{traces[r], Schemes[c], "None"} },
		read: func(rec record, _ int) []float64 { return []float64{rec.util} },
		text: func(v []float64) string { return fmt.Sprintf("%.1f", 100*v[0]) },
	}}
}

// table2 is the instantaneous-utilization frequencies on Thunder for the
// three isolating schedulers the paper tabulates.
func table2(scale float64) []table {
	schemes := []string{"LaaS", "Jigsaw", "TA"}
	return []table{{
		title:  fmt.Sprintf("Table 2: Frequency of instantaneous utilization ranges, Thunder (scale %.2f)", scale),
		corner: "Approach", rows: schemes, cols: metrics.Table2Labels, labelW: 10, cellW: 8,
		at:   func(r, _ int) cell { return cell{"Thunder", schemes[r], "None"} },
		read: func(rec record, c int) []float64 { return []float64{float64(rec.hist[c])} },
		text: func(v []float64) string { return strconv.Itoa(int(v[0])) },
		csv:  func(v float64) string { return strconv.Itoa(int(v)) },
	}}
}

// figure7 is average turnaround, of all jobs and of jobs larger than 100
// nodes, normalized to Baseline.
func figure7(scale float64) []table {
	title := fmt.Sprintf("Figure 7: Job turnaround times for %%s normalized to Baseline (all jobs / jobs > 100 nodes), scale %.2f", scale)
	return normalized(title, []string{"Aug-Cab", "Oct-Cab"}, 13,
		func(rec record) []float64 { return []float64{rec.turnaround, rec.turnaroundLarge} },
		func(v []float64) string { return fmt.Sprintf("%5.2f/%5.2f", v[0], v[1]) })
}

// figure8 is makespan normalized to Baseline.
func figure8(scale float64) []table {
	title := fmt.Sprintf("Figure 8: Makespans for %%s normalized to Baseline, scale %.2f", scale)
	return normalized(title, []string{"Thunder", "Atlas"}, 8,
		func(rec record) []float64 { return []float64{rec.makespan} },
		func(v []float64) string { return fmt.Sprintf("%.2f", v[0]) })
}

// normalized is the view Figures 7 and 8 share: per trace, the isolating
// schemes under every scenario, each value divided by the same metric of
// the trace's Baseline run, which never receives speed-ups. title is a
// format for the trace's name.
func normalized(title string, traces []string, cellW int, read func(record) []float64, text func([]float64) string) []table {
	var scs []string
	for _, sc := range scenario.All() {
		scs = append(scs, sc.Name())
	}
	var ts []table
	for _, tr := range traces {
		ts = append(ts, table{
			title: fmt.Sprintf(title, tr), key: tr,
			corner: "Scenario", rows: scs, cols: IsolatingSchemes, labelW: 9, cellW: cellW,
			at:   func(r, c int) cell { return cell{tr, IsolatingSchemes[c], scs[r]} },
			base: &cell{tr, "Baseline", "None"},
			read: func(rec record, _ int) []float64 { return read(rec) },
			text: text,
		})
	}
	return ts
}

// table3 is average scheduling time per job for four representative
// experiments, smallest to largest cluster. It is wall-clock, so it reads
// zero unless Config.MeasureTime is set, and is faithful only at Workers=1:
// parallel cells contend for the CPU.
func table3(scale float64) []table {
	traces := []string{"Synth-16", "Sep-Cab", "Thunder", "Synth-28"}
	schemes := []string{"TA", "LaaS", "Jigsaw", "LC+S"}
	return []table{{
		title: fmt.Sprintf("Table 3: Average scheduling time per job in seconds (scale %.2f)", scale),
		rows:  schemes, cols: traces, labelW: 8, cellW: 10, colMajor: true,
		at:   func(r, c int) cell { return cell{traces[c], schemes[r], "None"} },
		read: func(rec record, _ int) []float64 { return []float64{rec.schedTime} },
		text: func(v []float64) string { return fmt.Sprintf("%.5f", v[0]) },
	}}
}
