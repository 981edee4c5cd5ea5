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

// failRequest is the POST /v1/fail and /v1/recover body. Kind selects the
// resource; the other fields identify it:
//
//	{"kind":"node","node":5}
//	{"kind":"leaf-uplink","leaf":3,"l2":1}
//	{"kind":"spine-uplink","pod":2,"l2":0,"spine":3}
//	{"kind":"leaf-switch","leaf":2}
//	{"kind":"l2-switch","pod":0,"l2":1}
//	{"kind":"spine-switch","group":1,"spine":2}
type failRequest struct {
	Kind  string `json:"kind"`
	Node  int32  `json:"node"`
	Leaf  int    `json:"leaf"`
	Pod   int    `json:"pod"`
	L2    int    `json:"l2"`
	Group int    `json:"group"`
	Spine int    `json:"spine"`
}

// failure converts the wire form to a topology.Failure spec.
func (r failRequest) failure() (topology.Failure, error) {
	kind, err := topology.ParseFailureKind(r.Kind)
	if err != nil {
		return topology.Failure{}, err
	}
	switch kind {
	case topology.FailureNode:
		return topology.NodeFailure(topology.NodeID(r.Node)), nil
	case topology.FailureLeafUplink:
		return topology.LeafUplinkFailure(r.Leaf, r.L2), nil
	case topology.FailureSpineUplink:
		return topology.SpineUplinkFailure(r.Pod, r.L2, r.Spine), nil
	case topology.FailureLeafSwitch:
		return topology.LeafSwitchFailure(r.Leaf), nil
	case topology.FailureL2Switch:
		return topology.L2SwitchFailure(r.Pod, r.L2), nil
	default:
		return topology.SpineSwitchFailure(r.Group, r.Spine), nil
	}
}

func decodeFailure(w http.ResponseWriter, r *http.Request) (topology.Failure, bool) {
	var req failRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return topology.Failure{}, false
	}
	f, err := req.failure()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return topology.Failure{}, false
	}
	return f, true
}

// failurePod maps a single-pod failure domain to its pod, or -1 for
// spine-switch failures, which span every pod (each spine serves one L2
// position of all pods) and must be applied to every lane.
func (s *Server) failurePod(f topology.Failure) int {
	switch f.Kind {
	case topology.FailureNode:
		return int(f.Node) / s.tree.NodesPerLeaf / s.tree.LeavesPerPod
	case topology.FailureLeafUplink, topology.FailureLeafSwitch:
		return f.Leaf / s.tree.LeavesPerPod
	case topology.FailureSpineUplink, topology.FailureL2Switch:
		return f.Pod
	default:
		return -1
	}
}

// failureLanes returns the lanes a failure touches: the lane owning its pod,
// or every lane for a spine-switch failure.
func (s *Server) failureLanes(f topology.Failure) []*lane {
	pod := s.failurePod(f)
	if pod < 0 {
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
// is never left partially failed.
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
			if err != nil {
				writeError(w, http.StatusServiceUnavailable, "%v", err)
			} else {
				writeError(w, http.StatusConflict, "%v", failErr)
			}
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
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if recErr != nil && firstErr == nil {
			firstErr = recErr
		}
	}
	if firstErr != nil {
		writeError(w, http.StatusConflict, "%v", firstErr)
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
