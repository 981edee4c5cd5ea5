// Package failtrace parses and replays fault-injection traces: timed
// fail/recover events against the fabric resources of internal/topology's
// failure model. A trace file drives degraded-fabric experiments the same way
// a job trace drives scheduling ones.
//
// # File format
//
// One event per line, '#' starts a comment, blank lines are ignored:
//
//	<time> fail|recover <kind> <args...>
//
// where <kind> <args...> is the spec syntax of topology.Failure.String and
// topology.ParseFailure, which own the kinds and their arguments:
//
//	100 fail node 17
//	100 fail leaf-uplink 5 2
//	250 fail spine-uplink 2 0 3
//	300 fail leaf-switch 4
//	300 fail l2-switch 1 0
//	450 fail spine-switch 0 2
//	900 recover leaf-switch 4
//
// Times are engine (virtual) seconds and must be non-decreasing; replay
// interleaves the events with job arrivals and completions.
package failtrace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/topology"
)

// Event is one timed fail or recover action.
type Event struct {
	Time    float64
	Recover bool
	F       topology.Failure
}

func (e Event) String() string {
	verb := "fail"
	if e.Recover {
		verb = "recover"
	}
	return fmt.Sprintf("%g %s %s", e.Time, verb, e.F)
}

// Parse reads a fail trace. Events must be in non-decreasing time order so
// replay is a single forward pass.
func Parse(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("failtrace: line %d: want \"<time> fail|recover <kind> <args...>\"", lineNo)
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("failtrace: line %d: bad time %q", lineNo, fields[0])
		}
		var rec bool
		switch fields[1] {
		case "fail":
		case "recover":
			rec = true
		default:
			return nil, fmt.Errorf("failtrace: line %d: unknown verb %q (want fail or recover)", lineNo, fields[1])
		}
		f, err := topology.ParseFailure(fields[2], fields[3:])
		if err != nil {
			return nil, fmt.Errorf("failtrace: line %d: %w", lineNo, err)
		}
		if n := len(events); n > 0 && t < events[n-1].Time {
			return nil, fmt.Errorf("failtrace: line %d: time %g before previous event at %g", lineNo, t, events[n-1].Time)
		}
		events = append(events, Event{Time: t, Recover: rec, F: f})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("failtrace: %w", err)
	}
	return events, nil
}

// ParseFile reads a fail trace from disk.
func ParseFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// Stats aggregates what a replay did to the engine.
type Stats struct {
	Failures, Recoveries int
	// Affected, Requeued, Killed, and Shrunk sum the per-failure reports.
	Affected, Requeued, Killed, Shrunk int
}

// Replay advances the engine to each event's time and applies it,
// interleaving failures with the arrivals and completions already queued in
// the engine. Events must be time-ordered (Parse guarantees it). The engine
// is left at the last event's time with its remaining work unprocessed;
// callers drain it afterwards.
func Replay(eng *engine.Engine, events []Event) (Stats, error) {
	var st Stats
	for _, ev := range events {
		eng.AdvanceTo(ev.Time)
		if ev.Recover {
			if err := eng.Recover(ev.F); err != nil {
				return st, fmt.Errorf("failtrace: %s: %w", ev, err)
			}
			st.Recoveries++
			continue
		}
		rep, err := eng.Fail(ev.F)
		if err != nil {
			return st, fmt.Errorf("failtrace: %s: %w", ev, err)
		}
		st.Failures++
		st.Affected += rep.Affected
		st.Requeued += rep.Requeued
		st.Killed += rep.Killed
		st.Shrunk += rep.Shrunk
	}
	return st, nil
}
