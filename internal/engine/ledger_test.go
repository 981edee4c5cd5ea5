package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/trace"
)

// pointerField returns the path of the first field of t that makes memory of
// that type scannable by the garbage collector — pointer, string, slice, map,
// interface, channel or function — or "" when the type is flat scalars all
// the way down.
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	}
	return path + " (" + t.Kind().String() + ")"
}

// TestLedgerIsPointerFree keeps finished jobs invisible to the collector: the
// runtime allocates a map's storage as no-scan memory only while neither key
// nor value contains a pointer, and it stores keys and values over 128 bytes
// behind a pointer of its own. A new trace.Job or JobStatus field that breaks
// either rule would silently make the whole job history scannable again.
func TestLedgerIsPointerFree(t *testing.T) {
	ledger := reflect.TypeOf((&Engine{}).done)
	for _, side := range []struct {
		name string
		typ  reflect.Type
	}{{"key", ledger.Key()}, {"record", ledger.Elem()}} {
		if p := pointerField(side.typ, side.typ.String()); p != "" {
			t.Errorf("terminal ledger %s holds a pointer: %s", side.name, p)
		}
		if sz := side.typ.Size(); sz > 128 {
			t.Errorf("terminal ledger %s is %d bytes; over 128 the map stores it indirectly", side.name, sz)
		}
	}
}

// TestTerminalJobsLeaveTheActiveSet drives one job into each terminal state
// and checks that the engine keeps nothing of it but the ledger record, that
// the record answers Status/Cancel/duplicate checks exactly as the live job
// did, and that a cancelled job's pending arrival event stays harmless.
func TestTerminalJobsLeaveTheActiveSet(t *testing.T) {
	tree := topology.MustNew(4) // 16 nodes
	e, err := New(Config{Alloc: core.NewAllocator(tree), OnFailure: FailKill, Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(j trace.Job) {
		t.Helper()
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
		e.AdvanceTo(e.Now())
	}
	cancel := func(id int64) JobStatus {
		t.Helper()
		st, err := e.Cancel(id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := map[int64]JobStatus{}

	submit(trace.Job{ID: 1, Size: 16, Runtime: 100}) // running, fills the machine
	submit(trace.Job{ID: 2, Size: 4, Runtime: 10})   // queued behind it
	want[2] = cancel(2)                              // cancelled while queued
	want[1] = cancel(1)                              // cancelled while running
	submit(trace.Job{ID: 3, Size: 4, Arrival: 500, Runtime: 10})
	want[3] = cancel(3) // cancelled before arrival
	submit(trace.Job{ID: 4, Size: 4, Runtime: 10, Deadline: 5})
	want[4], _ = e.Status(4) // rejected at submit: deadline before arrival+runtime
	if want[4].State != StateRejected {
		t.Fatalf("job 4 is %s, want rejected", want[4].State)
	}
	submit(trace.Job{ID: 5, Size: 16, Runtime: 50})
	if rep, err := e.Fail(topology.NodeFailure(0)); err != nil || rep.Killed != 1 {
		t.Fatalf("Fail = %+v, %v; want one job killed", rep, err)
	}
	if err := e.Recover(topology.NodeFailure(0)); err != nil {
		t.Fatal(err)
	}
	want[5], _ = e.Status(5)
	if want[5].State != StateKilled {
		t.Fatalf("job 5 is %s, want killed", want[5].State)
	}
	submit(trace.Job{ID: 6, Size: 4, Runtime: 10})
	for {
		if _, ok := e.Step(); !ok { // completes 6 and pops 3's stale arrival
			break
		}
	}
	want[6], _ = e.Status(6)
	if want[6].State != StateCompleted {
		t.Fatalf("job 6 is %s, want completed", want[6].State)
	}

	if len(e.jobs) != 0 || len(e.queue) != 0 || len(e.running) != 0 {
		t.Fatalf("active set not empty: %d jobs, %d queued, %d running", len(e.jobs), len(e.queue), len(e.running))
	}
	if len(e.done) != len(want) {
		t.Fatalf("ledger holds %d records, want %d", len(e.done), len(want))
	}
	for id, st := range want {
		if got, ok := e.Status(id); !ok || got != st {
			t.Errorf("Status(%d) = %+v, %v; want %+v", id, got, ok, st)
		}
		got, err := e.Cancel(id)
		if wantErr := fmt.Sprintf("engine: job %d already %s", id, st.State); err == nil || err.Error() != wantErr || got != st {
			t.Errorf("Cancel(%d) = %+v, %v; want %+v, %q", id, got, err, st, wantErr)
		}
		if err := e.Submit(trace.Job{ID: id, Size: 1, Runtime: 1}); err == nil {
			t.Errorf("resubmitting terminal id %d was accepted", id)
		}
		if _, err := e.StartPlaced(trace.Job{ID: id, Size: 1}, 1, topology.NewPlacement(topology.JobID(id), 1)); err == nil {
			t.Errorf("StartPlaced on terminal id %d was accepted", id)
		}
	}
	if _, ok := e.Status(99); ok {
		t.Error("Status of an unknown id succeeded")
	}
	if _, err := e.Cancel(99); err == nil || err.Error() != "engine: unknown job 99" {
		t.Errorf("Cancel of an unknown id: %v", err)
	}
	checkConservation(t, e)
}

// TestHistoryIsOnlyASink runs the same trace with and without Config.History:
// every figure the daemon reads (utilization integrals, accounting scalars,
// counts, job statuses) is identical, and only the history slices differ.
func TestHistoryIsOnlyASink(t *testing.T) {
	tree := topology.MustNew(4)
	run := func(history bool) *Engine {
		e, err := New(Config{Alloc: core.NewAllocator(tree), History: history})
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(1); id <= 40; id++ {
			j := trace.Job{ID: id, Size: 1 + int(id*7%16), Arrival: float64(id / 4), Runtime: float64(5 + id%9)}
			if id == 13 {
				j.Size = 17 // larger than the machine: rejected at the head
			}
			if err := e.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		e.AdvanceTo(6)
		if _, err := e.Cancel(3); err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := e.Step(); !ok {
				break
			}
		}
		return e
	}
	with, without := run(true), run(false)

	if a, b := with.UtilizationTo(with.Now()), without.UtilizationTo(without.Now()); a != b || a == 0 {
		t.Errorf("UtilizationTo: %v with history, %v without", a, b)
	}
	if a, b := with.SteadyUtilization(), without.SteadyUtilization(); a != b || a == 0 {
		t.Errorf("SteadyUtilization: %v with history, %v without", a, b)
	}
	if with.Counts() != without.Counts() {
		t.Errorf("counts differ: %+v vs %+v", with.Counts(), without.Counts())
	}
	for id := int64(1); id <= 40; id++ {
		a, _ := with.Status(id)
		b, _ := without.Status(id)
		if a != b {
			t.Errorf("job %d: %+v with history, %+v without", id, a, b)
		}
	}
	wa, wo := with.Accounting(), without.Accounting()
	if len(wa.Records) == 0 || len(wa.Rejected) != 1 || len(wa.UtilSeries) == 0 || len(wa.InstSamples) == 0 {
		t.Fatalf("history engine recorded %d records, %d rejected, %d util points, %d samples",
			len(wa.Records), len(wa.Rejected), len(wa.UtilSeries), len(wa.InstSamples))
	}
	if wo.Records != nil || wo.Rejected != nil || wo.Killed != nil || wo.UtilSeries != nil || wo.InstSamples != nil {
		t.Errorf("engine without history kept some: %+v", wo)
	}
	wa.Records, wa.Rejected, wa.UtilSeries, wa.InstSamples = nil, nil, nil, nil
	if !reflect.DeepEqual(wa, wo) {
		t.Errorf("accounting scalars differ:\n with    %+v\n without %+v", wa, wo)
	}
}
