package failtrace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/trace"
)

const sample = `
# warm-up, then a rack loss and recovery
100 fail node 17
100 fail leaf-uplink 5 2
250 fail spine-uplink 2 0 3
300 fail leaf-switch 4      # takes the whole rack down
900 recover leaf-switch 4
950 recover node 17
960 recover leaf-uplink 5 2
970 recover spine-uplink 2 0 3
`

func TestParse(t *testing.T) {
	events, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Fatalf("parsed %d events, want 8", len(events))
	}
	if e := events[3]; e.Time != 300 || e.Recover || e.F.Kind != topology.FailureLeafSwitch || e.F.Leaf != 4 {
		t.Fatalf("event 3: %+v", e)
	}
	if e := events[4]; !e.Recover {
		t.Fatalf("event 4 not a recovery: %+v", e)
	}
	// Every event round-trips through its own String form.
	for _, e := range events {
		back, err := Parse(strings.NewReader(e.String()))
		if err != nil || len(back) != 1 || back[0] != e {
			t.Fatalf("round trip %v: %v, %v", e, back, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"100 fail",                         // missing spec
		"100 explode node 3",               // unknown verb
		"100 fail volcano 3",               // unknown kind
		"100 fail node x",                  // non-integer argument
		"100 fail node 1 2",                // too many arguments
		"100 fail spine-uplink 1 2",        // too few arguments
		"-5 fail node 3",                   // negative time
		"oops fail node 3",                 // bad time
		"200 fail node 1\n100 fail node 2", // out of order
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

func TestReplay(t *testing.T) {
	tree := topology.MustNew(8)
	eng, err := engine.New(engine.Config{Alloc: core.NewAllocator(tree), Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A long job claims leaf 0 at t=0; the fail trace takes that leaf down
	// at t=50 and brings it back at t=100.
	if err := eng.Submit(trace.Job{ID: 1, Size: tree.NodesPerLeaf, Arrival: 0, Runtime: 400}); err != nil {
		t.Fatal(err)
	}
	events, err := Parse(strings.NewReader("50 fail leaf-switch 0\n100 recover leaf-switch 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(eng, events)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != 1 || st.Recoveries != 1 || st.Affected != 1 || st.Requeued != 1 || st.Killed != 0 {
		t.Fatalf("stats %+v", st)
	}
	if eng.Degraded() {
		t.Fatal("engine degraded after the trace recovered everything")
	}
	for {
		if _, ok := eng.Step(); !ok {
			break
		}
	}
	if c := eng.Counts(); c.Completed != 1 || c.Requeued != 1 {
		t.Fatalf("counts %+v", c)
	}
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Replaying the same trace again fails (resources already recovered by
	// spec identity) and reports the offending event.
	if _, err := Replay(eng, events[1:]); err == nil {
		t.Fatal("recover of a never-failed spec accepted")
	}
}

// TestReplayOverlappingSpecs replays the trace that aborted a -fail-trace run
// while the engine kept its own copy of the active set: a node fails, the
// leaf switch above it fails and recovers, and the node — still failed, by
// the overlap rule — recovers last.
func TestReplayOverlappingSpecs(t *testing.T) {
	tree := topology.MustNew(8)
	eng, err := engine.New(engine.Config{Alloc: core.NewAllocator(tree), Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Parse(strings.NewReader("10 fail node 5\n20 fail leaf-switch 1\n30 recover leaf-switch 1\n40 recover node 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(eng, events[:3])
	if err != nil || st.Failures != 2 || st.Recoveries != 1 {
		t.Fatalf("first three events: %+v, %v", st, err)
	}
	if state := eng.Config().Alloc.State(); !state.NodeFailed(5) || !eng.Degraded() {
		t.Fatalf("after the leaf switch recovered: node 5 failed=%v degraded=%v", state.NodeFailed(5), eng.Degraded())
	}
	if st, err = Replay(eng, events[3:]); err != nil || st.Recoveries != 1 {
		t.Fatalf("recover node 5: %+v, %v", st, err)
	}
	if eng.Degraded() {
		t.Fatal("engine degraded after the trace recovered everything")
	}
	if err := eng.Config().Alloc.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplaySumsShrunk: a malleable whole-machine job re-placed on the
// surviving fabric is reported under Shrunk, which Stats used to drop.
func TestReplaySumsShrunk(t *testing.T) {
	tree := topology.MustNew(8)
	eng, err := engine.New(engine.Config{Alloc: core.NewAllocator(tree), Window: 10, Elastic: true, OnFailure: engine.FailShrink})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(trace.Job{ID: 1, Size: tree.Nodes(), Arrival: 0, Runtime: 100, MinNodes: 4}); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(eng, []Event{{Time: 5, F: topology.LeafSwitchFailure(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Failures: 1, Affected: 1, Shrunk: 1}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}
