package stats

import (
	"dpa/internal/obs"
	"dpa/internal/sim"
)

// Metrics snapshotting: a Run's counters exported through the obs metrics
// registry, superseding ad-hoc consumption of Breakdown/RTStats fields for
// monitoring purposes. Snapshots are taken from finished runs only, so they
// cost nothing while the simulator runs, and every value is a pure function
// of the (deterministic) run — the exported text is diffable across engines
// and repeats.

// MetricsInto snapshots the run's counters into reg. When phase is non-empty
// every sample carries a phase="..." label, letting several phases share one
// registry; counters accumulate across snapshots with identical labels.
func (r *Run) MetricsInto(reg *obs.Registry, phase string) {
	lbl := func(extra ...obs.Label) []obs.Label {
		if phase == "" {
			return extra
		}
		return append([]obs.Label{obs.L("phase", phase)}, extra...)
	}

	reg.Gauge("dpa_makespan_cycles", "Phase makespan in simulated cycles.").
		Set(int64(r.Makespan), lbl()...)
	reg.Gauge("dpa_nodes", "Simulated node count.").
		Set(int64(len(r.Nodes)), lbl()...)

	cyc := reg.Counter("dpa_cycles_total", "Cycles charged per category, summed over nodes.")
	total := r.Total()
	for c, v := range total.Cycles {
		cyc.Add(int64(v), lbl(obs.L("category", sim.Category(c).String()))...)
	}
	_, most, sum := r.busiest()
	reg.Gauge("dpa_busy_max_cycles", "Non-idle cycles of the busiest node.").
		Set(int64(most), lbl()...)
	reg.Gauge("dpa_busy_mean_cycles", "Non-idle cycles per node, mean over nodes.").
		Set(int64(sum)/int64(max(1, len(r.Nodes))), lbl()...)
	reg.Counter("dpa_msgs_sent_total", "Messages injected, summed over nodes.").
		Add(total.MsgsSent, lbl()...)
	reg.Counter("dpa_bytes_sent_total", "Payload bytes injected, summed over nodes.").
		Add(total.BytesSent, lbl()...)
	reg.Counter("dpa_cache_hits_total", "Data-cache model hits, summed over nodes.").
		Add(total.CacheHits, lbl()...)
	reg.Counter("dpa_cache_misses_total", "Data-cache model misses, summed over nodes.").
		Add(total.CacheMisses, lbl()...)

	reg.Counter("dpa_threads_run_total", "Non-blocking threads executed.").
		Add(r.RT.ThreadsRun, lbl()...)
	reg.Counter("dpa_spawns_total", "Thread-creation sites executed.").
		Add(r.RT.Spawns, lbl()...)
	reg.Counter("dpa_fetches_total", "Distinct remote objects requested.").
		Add(r.RT.Fetches, lbl()...)
	reg.Counter("dpa_refetches_total", "Objects fetched again after being dropped.").
		Add(r.RT.Refetches, lbl()...)
	reg.Counter("dpa_reuses_total", "Spawns satisfied by an already-present copy.").
		Add(r.RT.Reuses, lbl()...)
	reg.Counter("dpa_req_msgs_total", "Fetch request messages sent.").
		Add(r.RT.ReqMsgs, lbl()...)
	reg.Counter("dpa_abandoned_total", "Threads abandoned on unreachable owners.").
		Add(r.RT.Abandoned, lbl()...)
	reg.Gauge("dpa_peak_outstanding_threads", "Peak suspended+ready threads on one node.").
		Set(r.RT.PeakOutstanding, lbl()...)
	reg.Gauge("dpa_peak_arrived_bytes", "Peak renamed-copy bytes on one node.").
		Set(r.RT.PeakArrivedBytes, lbl()...)
	reg.Counter("dpa_strip_grows_total", "Planned strip-size increases.").
		Add(r.RT.StripGrows, lbl()...)
	reg.Counter("dpa_strip_shrinks_total", "Planned strip-size decreases.").
		Add(r.RT.StripShrinks, lbl()...)
	reg.Counter("dpa_plan_strips_total", "Predictive planner strip decisions.").
		Add(r.RT.PlanStrips, lbl()...)
	reg.Counter("dpa_plan_mispredicts_total", "Planner strips whose outcome broke a model promise.").
		Add(r.RT.PlanMispredicts, lbl()...)
	reg.Counter("dpa_plan_prior_hits_total", "Planner decisions taken from a cross-phase prior.").
		Add(r.RT.PlanPriorHits, lbl()...)
	reg.Counter("dpa_shaped_runs_total", "Owner-major runs emitted by affinity-shaped loops.").
		Add(r.RT.ShapedRuns, lbl()...)
	reg.Gauge("dpa_prior_bytes", "Cross-phase prior table footprint on one node.").
		Set(r.RT.PriorBytes, lbl()...)

	flt := reg.Counter("dpa_faults_injected_total", "Faults injected, by fault kind.")
	flt.Add(r.Faults.Dropped, lbl(obs.L("kind", "drop"))...)
	flt.Add(r.Faults.Duplicated, lbl(obs.L("kind", "dup"))...)
	flt.Add(r.Faults.Jittered, lbl(obs.L("kind", "jitter"))...)
	flt.Add(r.Faults.Stalls, lbl(obs.L("kind", "stall"))...)
	reg.Counter("dpa_retransmits_total", "Reliability-layer frame retransmissions.").
		Add(r.Faults.Retransmits, lbl()...)
	reg.Counter("dpa_frames_exhausted_total", "Frames abandoned after the retry cap.").
		Add(r.Faults.Exhausted, lbl()...)
	reg.Counter("dpa_dups_suppressed_total", "Received frames discarded as duplicates.").
		Add(r.Faults.DupsSuppressed, lbl()...)
}

// Metrics returns a fresh registry holding this run's snapshot (unlabeled).
func (r *Run) Metrics() *obs.Registry {
	reg := obs.NewRegistry()
	r.MetricsInto(reg, "")
	return reg
}
