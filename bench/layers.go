package main

import (
	"time"

	"dpa"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// counts are the per-layer metrics read from a run's merged stats.Run. They
// describe the simulated machine, so they repeat exactly at a fixed seed and
// are the same under both engines.
func counts(r stats.Run, phases, nodes int) metrics {
	rt, msgs := r.RT, r.MsgsSent()
	local, comm, idle := r.AvgPerNode() // cycles per node
	frac := func(t sim.Time) float64 { return float64(t) / float64(r.Makespan) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var ms metrics
	ms.add("sim.events", float64(rt.ThreadsRun+msgs))
	ms.add("sim.idle_frac", frac(idle))
	ms.add("sim.comm_frac", frac(comm))
	ms.add("sim.local_frac", frac(local))
	ms.add("machine.msgs", float64(msgs))
	ms.add("machine.mbytes", float64(r.BytesSent())/1e6)
	ms.add("core.threads", float64(rt.ThreadsRun))
	ms.add("core.local_hits", float64(rt.LocalHits))
	ms.add("core.reuses", float64(rt.Reuses))
	ms.add("core.fetches", float64(rt.Fetches))
	ms.add("core.refetches", float64(rt.Refetches))
	ms.add("core.reuse_ratio", ratio(rt.Reuses, rt.Reuses+rt.Fetches))
	ms.add("core.req_msgs", float64(rt.ReqMsgs))
	ms.add("core.objs_per_msg", ratio(rt.Fetches, rt.ReqMsgs))
	ms.add("core.peak_outstanding", float64(rt.PeakOutstanding))
	ms.add("core.peak_copy_kb", float64(rt.PeakArrivedBytes)/1024)
	ms.add("core.plan_strips", float64(rt.PlanStrips))
	ms.add("core.plan_mispredicts", float64(rt.PlanMispredicts))
	ms.add("core.prior_hits", float64(rt.PlanPriorHits))
	ms.add("core.shaped_runs", float64(rt.ShapedRuns))
	ms.add("core.prior_kb", float64(rt.PriorBytes)/1024)
	ms.add("driver.phases", float64(phases))
	ms.add("driver.runtimes_built", float64(phases*nodes))
	return ms
}

// baseNodes is the node count the empty-phase growth is taken against.
const baseNodes = 64

// spanCost is the measured cost in seconds of opening and closing one span.
func spanCost() float64 {
	const n = 10000
	l := newSpanLog()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.begin("calibrate")()
	}
	return time.Since(t0).Seconds() / n
}

// tracedRun measures the layers from outside: counts from the run's
// statistics, spans around the benchmark's calls, and probes of each layer's
// public functions at the workload's node count and policy.
//
// The tracer's overhead compares the fastest of sz.layerReps interleaved runs
// with and without it. The spans' own overhead is computed — the spans one
// run records times the measured cost of a span — because runs on a small box
// spread by several percent and their ratio cannot resolve a cost this small.
func tracedRun(w workload, seed int64, sz sizes, sp *spanLog) result {
	res := result{Workload: w.name}
	sp.workload = w.name
	defer sp.begin("workload")()
	nodes, spec := w.nodes(sz), w.spec()
	seq, par := machineFor(nodes, dpa.Sequential()), machineFor(nodes, dpa.Parallel())

	end := sp.begin("bench.prepare")
	a := w.prepare(seed, nodes, sz)
	end()
	var base *stats.Run
	run := func(mcfg machine.Config, log *spanLog) (timedRun, bool) {
		r := measure(a, mcfg, spec, log, base)
		res.Attempted++
		if r.err != nil {
			res.fail(mcfg.Engine.String(), r.err)
		}
		return r, r.err == nil
	}
	warm, ok := run(seq, nil)
	if !ok {
		return res
	}
	base = &warm.run

	var spanned, observed, build, phase, check samples
	spansPerRun := 0
	for i := 0; i < sz.layerReps; i++ {
		from := len(sp.spans)
		if r, ok := run(seq, sp); ok {
			spansPerRun = len(sp.spans) - from
			spanned = append(spanned, r.seconds)
			b, p := sp.total("app.build", from), sp.total("driver.run_phase", from)
			if b == 0 {
				// The app's runner builds inside one call: time the same
				// construction by a separate call and take it off the run.
				end := sp.begin("app.build.separate")
				a.build()
				end()
				b = sp.total("app.build.separate", from)
				p = r.seconds - b
			}
			build, phase = append(build, b), append(phase, p)
			check = append(check, sp.total("app.check", from))
		}
		// The default ring (32 Ki events per node) is 4.5 GB at 1024 nodes;
		// this one keeps the tracer at about 9 MB at every node count.
		obs := seq
		obs.Obs = dpa.NewTracer(nodes, max(64, 1<<16/nodes))
		if r, ok := run(obs, nil); ok {
			observed = append(observed, r.seconds)
		}
	}
	parRun, ok := run(par, sp)
	if !ok || len(spanned) == 0 || len(observed) == 0 {
		return res
	}

	var table samples
	for i := 0; i < sz.layerReps+2; i++ {
		end := sp.begin("stats.table")
		t0 := time.Now()
		_ = base.Table(seq.ClockHz)
		table = append(table, float64(time.Since(t0).Nanoseconds())/1e3)
		end()
	}

	ms := counts(*base, w.phases(sz), nodes)
	hostSeq := spanned.median()
	events := ms.get("sim.events")
	ms.add("sim.par_workers", float64(parRun.run.Host.Workers))
	ms.add("sim.par_windows", float64(parRun.run.Host.Windows))
	ms.add("sim.par_steals", float64(parRun.run.Host.Steals()))
	ms.add("sim.ns_per_event_seq", hostSeq*1e9/events)
	ms.add("sim.ns_per_event_par", parRun.seconds*1e9/events)
	ms.add("app.build_s", build.median())
	ms.add("driver.run_phase_s", phase.median())
	ms.add("app.check_s", check.median())
	ms.add("stats.table_us", table.median())
	ms.add("obs.tracer_overhead", observed.min()/spanned.min())
	ms.add("bench.span_overhead", 1+float64(spansPerRun)*spanCost()/hostSeq)

	// Probes. Each messaging ring is the one below plus one layer.
	reps := sz.layerReps
	rounds := max(1, sz.probeMsgs/nodes)
	perMsg := func(name string, f func()) cost { return probe(sp, name, reps, f).per(rounds * nodes) }
	simSeq := perMsg("sim.ring.seq", func() { simRing(seq, rounds) })
	simPar := perMsg("sim.ring.par", func() { simRing(par, rounds) })
	mach := perMsg("machine.ring", func() { machineRing(seq, rounds) })
	fmMsg := perMsg("fm.ring", func() { fmRing(seq, rounds) })
	barriers := max(1, sz.probeBarriers/(2*nodes))
	barrier := probe(sp, "fm.barrier", reps, func() { fmBarriers(seq, barriers) }).per(barriers)
	ms.add("sim.probe_ns_per_msg_seq", simSeq.ns)
	ms.add("sim.probe_ns_per_msg_par", simPar.ns)
	ms.add("sim.probe_allocs_per_msg", simSeq.allocs)
	ms.add("machine.probe_ns_per_msg", mach.ns)
	ms.add("fm.probe_ns_per_msg", fmMsg.ns)
	ms.add("fm.probe_barrier_us", barrier.ns/1e3)

	// One phase with an empty body is what the driver and the layers under
	// it cost per phase whatever the app does; the core probes subtract it.
	k := max(1, sz.probeThreads/nodes)
	space, ptrs := coreSpace(nodes, k)
	var emptyRun, fetchRun stats.Run
	empty := probe(sp, "driver.empty_phase", reps+2, func() { emptyRun = corePhase(seq, spec, space, ptrs, "empty") })
	growth := 1.0
	if nodes > baseNodes {
		small := machineFor(baseNodes, dpa.Sequential())
		smallSpace, smallPtrs := coreSpace(baseNodes, 1)
		at64 := probe(sp, "driver.empty_phase.64", reps+2, func() { corePhase(small, spec, smallSpace, smallPtrs, "empty") })
		growth = empty.per(nodes).ns / at64.per(baseNodes).ns
	}
	perThread := func(kind string, out *stats.Run) cost {
		c := probe(sp, "core."+kind, reps, func() {
			r := corePhase(seq, spec, space, ptrs, kind)
			if out != nil {
				*out = r
			}
		})
		return c.sub(empty).per(k * nodes)
	}
	local, reuse, fetch := perThread("local", nil), perThread("reuse", nil), perThread("fetch", &fetchRun)
	gptrOps := sz.probeThreads
	alloc := probe(sp, "gptr.alloc_get", reps, func() { gptrAllocGet(nodes, gptrOps) }).per(gptrOps)
	ms.add("driver.probe_empty_phase_us_per_node", empty.per(nodes).ns/1e3)
	ms.add("driver.probe_empty_phase_kb_per_node", empty.per(nodes).bytes/1024)
	ms.add("driver.probe_empty_phase_growth", growth)
	ms.add("core.probe_local_ns_per_thread", local.ns)
	ms.add("core.probe_reuse_ns_per_thread", reuse.ns)
	ms.add("core.probe_fetch_ns_per_thread", fetch.ns)
	ms.add("core.probe_fetch_allocs_per_thread", fetch.allocs)
	ms.add("gptr.probe_alloc_get_ns", alloc.ns)

	// Estimated shares of host_s_seq: a layer's own cost per operation (its
	// probe less the probe of the layer beneath) times the run's operation
	// count. The empty phases already hold their barrier messages, and the
	// fetch probe its request and reply messages, so those are taken off.
	phases := float64(w.phases(sz))
	appMsgs := max(0, ms.get("machine.msgs")-phases*float64(emptyRun.MsgsSent()))
	fetchMsgs := float64(fetchRun.MsgsSent()-emptyRun.MsgsSent()) / float64(k*nodes)
	fetchSelf := max(0, fetch.ns-fetchMsgs*fmMsg.ns)
	hostNS := hostSeq * 1e9
	shares := []struct {
		name string
		ns   float64
	}{
		{"sim.share", simSeq.ns * appMsgs},
		{"machine.share", mach.sub(simSeq).ns * appMsgs},
		{"fm.share", fmMsg.sub(mach).ns * appMsgs},
		{"core.share", local.ns*ms.get("core.local_hits") + reuse.ns*ms.get("core.reuses") + fetchSelf*ms.get("core.fetches")},
		{"driver.share", empty.ns * phases},
	}
	rest := 1.0
	for _, s := range shares {
		ms.add(s.name, s.ns/hostNS)
		rest -= s.ns / hostNS
	}
	ms.add("app.share", max(0, rest))
	res.Metrics = ms
	return res
}
