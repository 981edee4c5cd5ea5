package server

// Fault-injection surface: POST /v1/fail and POST /v1/recover mark fabric
// resources down or back up on the live engine, and /healthz reports the
// degraded state. See internal/topology's failure model for what each kind
// means and internal/engine for the requeue/kill/shrink policy applied to
// running jobs hit by a failure.

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// decodeFailure reads the POST /v1/fail and /v1/recover body, a failure spec
// in topology.Failure's wire form: "kind" plus the fields identifying one
// instance of it.
//
//	{"kind":"node","node":5}
//	{"kind":"leaf-uplink","leaf":3,"l2":1}
//	{"kind":"spine-uplink","pod":2,"l2":0,"spine":3}
//	{"kind":"leaf-switch","leaf":2}
//	{"kind":"l2-switch","pod":0,"l2":1}
//	{"kind":"spine-switch","group":1,"spine":2}
func decodeFailure(w http.ResponseWriter, r *http.Request) (f topology.Failure, ok bool) {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&f); err != nil {
		writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return f, false
	}
	return f, true
}

// failureLanes returns the lanes a failure touches: the lane owning its pod,
// or every lane for a failure domain that spans all pods (a spine switch).
func (s *Server) failureLanes(f topology.Failure) []*lane {
	pod, ok := f.PodOf(s.tree)
	if !ok {
		return s.lanes
	}
	ci := shard.CellOf(s.cells, pod)
	if ci < 0 {
		// Out-of-range identifiers: let lane 0's engine produce its usual
		// validation error.
		ci = 0
	}
	return s.lanes[ci : ci+1]
}

// handleFail applies the failure to the lanes it touches in ascending order,
// reverting the already-applied lanes if a later one refuses, so the fabric
// is never left partially failed. The revert is a plain Recover: by the
// overlap rule it returns only what no other active failure covers.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	f, ok := decodeFailure(w, r)
	if !ok {
		return
	}
	lanes := s.failureLanes(f)
	var agg engine.FailReport
	for i, l := range lanes {
		var rep engine.FailReport
		var failErr error
		err := l.do(func(e *engine.Engine) { rep, failErr = e.Fail(f) })
		if err != nil || failErr != nil {
			for _, applied := range lanes[:i] {
				applied.do(func(e *engine.Engine) { e.Recover(f) })
			}
			if err == nil {
				err = failErr
			}
			writeFailure(w, err)
			return
		}
		agg.Affected += rep.Affected
		agg.Requeued += rep.Requeued
		agg.Killed += rep.Killed
		agg.Shrunk += rep.Shrunk
	}
	s.log.Warn("resource failed", "failure", f.String(),
		"affected", agg.Affected, "requeued", agg.Requeued, "killed", agg.Killed, "shrunk", agg.Shrunk)
	writeJSON(w, http.StatusOK, map[string]any{
		"failure":  f.String(),
		"affected": agg.Affected,
		"requeued": agg.Requeued,
		"killed":   agg.Killed,
		"shrunk":   agg.Shrunk,
	})
}

// handleRecover undoes the failure on the lanes it touches. Every lane is
// attempted (a partial recovery is strictly better than none); the first
// rejection is reported if any lane refused.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	f, ok := decodeFailure(w, r)
	if !ok {
		return
	}
	var firstErr error
	degraded := false
	for _, l := range s.failureLanes(f) {
		var recErr error
		if err := l.do(func(e *engine.Engine) {
			recErr = e.Recover(f)
			degraded = degraded || e.Degraded()
		}); err != nil {
			writeFailure(w, err)
			return
		}
		if recErr != nil && firstErr == nil {
			firstErr = recErr
		}
	}
	if firstErr != nil {
		writeFailure(w, firstErr)
		return
	}
	s.log.Info("resource recovered", "failure", f.String(), "degraded", degraded)
	writeJSON(w, http.StatusOK, map[string]any{
		"failure":  f.String(),
		"degraded": degraded,
	})
}

// failedResources counts the nodes, links and switches a view reports failed.
func failedResources(v *snapshot.View) int {
	return v.Snap.FailedNodes + v.Snap.FailedLinks + v.Snap.FailedSwitches
}

// handleHealthz is the liveness probe. A degraded fabric still answers 200 —
// the daemon is alive and scheduling around the failures — but the body says
// "degraded" so probes and humans can tell the difference at a glance. It is
// served from the published snapshot: a probe never waits on the engine.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := s.view()
	w.WriteHeader(http.StatusOK)
	if failedResources(v) > 0 {
		io.WriteString(w, "degraded\n")
		return
	}
	io.WriteString(w, "ok\n")
}
