package server

// The /v1/shards endpoint and the metrics exposition: cluster-wide figures
// from the merged view and the summed per-lane ingest counters, then, when
// there is a coordinator (more than one lane), the per-shard labeled series
// and the coordinator's counters.

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/snapshot"
)

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, len(s.lanes))
	for i, l := range s.lanes {
		v := l.pub.Load()
		shards[i] = map[string]any{
			"shard":         i,
			"pod_lo":        s.cells[i].PodLo,
			"pod_hi":        s.cells[i].PodHi,
			"nodes":         v.Snap.TotalNodes,
			"used_nodes":    v.Snap.UsedNodes,
			"free_nodes":    v.Snap.FreeNodes,
			"queue_depth":   v.Snap.QueueDepth,
			"running_jobs":  v.Snap.RunningJobs,
			"ingest_depth":  l.batcher.Len(),
			"now":           v.Snap.Now,
			"snapshot_seq":  v.Seq,
			"state_version": v.StateVersion,
			"degraded":      failedResources(v) > 0,
			"counts":        countsJSON(v.Snap.Counts),
		}
	}
	resp := map[string]any{
		"shards": shards,
		"count":  len(s.lanes),
		"route":  "hash", // the one routing policy (shard.RouteHash)
		// max_single_shard_size: jobs wider than this take the cross-shard
		// whole-pod path.
		"max_single_shard_size": s.maxCell,
	}
	if s.cross != nil {
		cs := s.cross.stats()
		resp["cross"] = map[string]any{
			"waiting":       cs.Waiting,
			"placed":        cs.Placed,
			"subpod_placed": cs.SubpodPlaced,
			"shrunk_placed": cs.ShrunkPlaced,
			"attempts":      cs.Attempts,
			"infeasible":    cs.Infeasible,
			"conflicts":     cs.Conflicts,
			"parks":         s.laneParks(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// mergeHists folds per-lane histograms into one for the cluster-wide
// exposition.
func mergeHists(hs []*latencyHist) *latencyHist {
	m := newLatencyHist()
	for _, h := range hs {
		h.mu.Lock()
		for i := range h.counts {
			m.counts[i] += h.counts[i]
		}
		m.sum += h.sum
		m.n += h.n
		m.samples = append(m.samples, h.samples...)
		h.mu.Unlock()
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := s.view()
	var inAccepted, inRejected int64
	var inLen, inCap int
	lat := make([]*latencyHist, len(s.lanes))
	qw := make([]*latencyHist, len(s.lanes))
	for i, l := range s.lanes {
		inAccepted += l.batcher.Accepted()
		inRejected += l.batcher.Rejected()
		inLen += l.batcher.Len()
		inCap += l.batcher.Cap()
		lat[i], qw[i] = l.latency, l.queueWait
	}
	mw := newMetricsWriter()
	c := v.Snap.Counts
	mw.counter("jigsawd_jobs_submitted_total", "Jobs accepted by the engine.", c.Submitted)
	mw.counter("jigsawd_jobs_started_total", "Jobs that received an allocation and started.", c.Started)
	mw.counter("jigsawd_jobs_completed_total", "Jobs that ran to completion.", c.Completed)
	mw.counter("jigsawd_jobs_rejected_total", "Jobs that could not fit even on a drained machine.", c.Rejected)
	mw.counter("jigsawd_jobs_cancelled_total", "Jobs cancelled while queued or running.", c.Cancelled)
	mw.counter("jigsawd_jobs_requeued_total", "Running jobs returned to the queue by a resource failure.", c.Requeued)
	mw.counter("jigsawd_jobs_killed_total", "Running jobs killed by a resource failure (fail policy kill).", c.Killed)
	mw.counter("jigsawd_jobs_shrunk_total", "Running malleable jobs re-placed on the surviving fabric after a failure (fail policy shrink).", c.Shrunk)
	mw.counter("jigsawd_jobs_grown_total", "Running malleable jobs expanded into freed capacity.", c.Grown)
	mw.counter("jigsawd_jobs_preempted_total", "Running jobs checkpoint-requeued to make room for an urgent higher-priority job.", c.Preempted)
	mw.gaugeInt("jigsawd_queue_depth", "Jobs waiting for an allocation.", v.Snap.QueueDepth)
	mw.gaugeInt("jigsawd_running_jobs", "Jobs currently holding an allocation.", v.Snap.RunningJobs)
	mw.gaugeInt("jigsawd_nodes_total", "Compute nodes in the simulated fat-tree.", v.Snap.TotalNodes)
	mw.gaugeInt("jigsawd_nodes_used", "Nodes counted at requested job sizes (paper's utilization definition).", v.Snap.UsedNodes)
	mw.gaugeInt("jigsawd_nodes_free", "Nodes the allocator reports free (rounded allocations excluded).", v.Snap.FreeNodes)
	mw.gauge("jigsawd_utilization_instant", "used/total at the current instant.", float64(v.Snap.UsedNodes)/float64(v.Snap.TotalNodes))
	mw.gauge("jigsawd_utilization_to_now", "Average utilization from first arrival to the current clock.", v.UtilNow)
	mw.gauge("jigsawd_utilization_steady", "Steady-state average utilization (final drain excluded), Section 5's metric.", v.UtilSteady)
	mw.gauge("jigsawd_engine_virtual_seconds", "The engine's virtual clock.", v.Snap.Now)
	mw.gaugeInt("jigsawd_engine_pending_events", "Undelivered arrival/completion events.", v.Snap.PendingEvents)
	mw.gaugeInt("jigsawd_failed_nodes", "Compute nodes currently marked failed.", v.Snap.FailedNodes)
	mw.gaugeInt("jigsawd_failed_links", "Uplinks (leaf->L2 and L2->spine) currently marked failed.", v.Snap.FailedLinks)
	mw.gaugeInt("jigsawd_failed_switches", "Whole-switch failures (leaf, L2, or spine) currently active.", v.Snap.FailedSwitches)
	mw.counter("jigsawd_feasibility_cache_hits_total", "Allocation attempts the negative-feasibility cache refused without a search: no placement, or a backfill placement that displaces the queue head's reservation.", int64(v.FeasHits))
	mw.counter("jigsawd_feasibility_cache_misses_total", "Feasibility-cache consults that fell through to a real allocator search.", int64(v.FeasMisses))
	mw.counter("jigsawd_feasibility_cache_invalidations_total", "Times a change of the live allocation state discarded cached verdicts; a backfill probe that was charged and released again is not one.", int64(v.FeasInvalidations))
	mw.counter("jigsawd_ingest_accepted_total", "Operations admitted to the ingest queue.", inAccepted)
	mw.counter("jigsawd_ingest_rejected_total", "Operations shed with 429 because the ingest queue was full.", inRejected)
	mw.gaugeInt("jigsawd_ingest_queue_depth", "Operations accepted but not yet applied.", inLen)
	mw.gaugeInt("jigsawd_ingest_queue_capacity", "Bound on accepted-but-unapplied operations.", inCap)
	mw.counter("jigsawd_snapshot_publishes_total", "Read-path snapshot publications since start.", int64(v.Seq))
	mw.gauge("jigsawd_snapshot_state_version", "Allocation-state version the published snapshot was captured at.", float64(v.StateVersion))
	mergeHists(lat).write(mw, "jigsawd_schedule_latency_seconds",
		"Engine time per scheduling request (Submit/Cancel plus the event steps it triggers), measured on the engine goroutine; queue wait excluded.")
	mergeHists(qw).write(mw, "jigsawd_request_queue_wait_seconds",
		"Time a scheduling request waits in the ingest queue before the engine goroutine starts executing it.")
	s.httpStats.write(mw, "jigsawd_http_requests_total")
	if s.cross != nil {
		s.writeShardMetrics(mw, s.laneViews())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, mw.String())
}

// writeShardMetrics emits the per-shard labeled series and the coordinator's
// counters. One lane has no coordinator and its series would repeat the
// cluster-wide ones above, so handleMetrics skips them.
func (s *Server) writeShardMetrics(mw *metricsWriter, views []*snapshot.View) {
	series := func(name, help string, f func(i int, v *snapshot.View) string) {
		mw.header(name, "gauge", help)
		for i, v := range views {
			fmt.Fprintf(mw.b, "%s{shard=\"%d\"} %s\n", name, i, f(i, v))
		}
	}
	series("jigsawd_shard_nodes_total", "Compute nodes owned by the shard's cell.",
		func(i int, v *snapshot.View) string { return itoa(v.Snap.TotalNodes) })
	series("jigsawd_shard_nodes_used", "Nodes in use on the shard.",
		func(i int, v *snapshot.View) string { return itoa(v.Snap.UsedNodes) })
	series("jigsawd_shard_queue_depth", "Jobs waiting on the shard's engine.",
		func(i int, v *snapshot.View) string { return itoa(v.Snap.QueueDepth) })
	series("jigsawd_shard_running_jobs", "Jobs running on the shard.",
		func(i int, v *snapshot.View) string { return itoa(v.Snap.RunningJobs) })
	series("jigsawd_shard_ingest_queue_depth", "Operations accepted but not yet applied by the shard.",
		func(i int, v *snapshot.View) string { return itoa(s.lanes[i].batcher.Len()) })
	series("jigsawd_shard_snapshot_publishes_total", "Snapshot publications by the shard.",
		func(i int, v *snapshot.View) string { return itoa(int(views[i].Seq)) })
	cs := s.cross.stats()
	mw.gaugeInt("jigsawd_cross_shard_waiting", "Cross-shard jobs waiting for capacity.", cs.Waiting)
	mw.counter("jigsawd_cross_shard_placed_total", "Cross-shard placements since start.", cs.Placed)
	mw.counter("jigsawd_cross_shard_subpod_placed_total", "Cross-shard placements that used partially-free pods or sub-pod tree shapes.", cs.SubpodPlaced)
	mw.counter("jigsawd_cross_shard_shrunk_placed_total", "Cross-shard malleable jobs placed below their requested size.", cs.ShrunkPlaced)
	mw.counter("jigsawd_cross_shard_attempts_total", "Snapshot-guided cross-shard composition attempts.", cs.Attempts)
	mw.counter("jigsawd_cross_shard_infeasible_total", "Attempts that found no legal shape (and parked no lane).", cs.Infeasible)
	mw.counter("jigsawd_cross_shard_conflicts_total", "Optimistic-validation retries after losing a race to shard-local traffic.", cs.Conflicts)
	mw.counter("jigsawd_cross_shard_parks_total", "Lane parks performed by the coordinator, summed over lanes.", s.laneParks())
}

// laneParks sums the coordinator's park() calls across lanes.
func (s *Server) laneParks() int64 {
	var n int64
	for _, l := range s.lanes {
		n += l.parks.Load()
	}
	return n
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
