// Package stats collects and merges execution statistics from simulated
// runs: per-node cycle breakdowns (the paper's idle / communication overhead
// / local computation split), message traffic, and runtime-level counters
// (outstanding threads, fetch and reuse counts, aggregation sizes).
package stats

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"dpa/internal/machine"
	"dpa/internal/sim"
)

// Breakdown is one node's accumulated costs.
type Breakdown struct {
	Cycles      [sim.NumCategories]sim.Time
	MsgsSent    int64
	BytesSent   int64
	MsgsRecv    int64
	BytesRecv   int64
	CacheHits   int64
	CacheMisses int64
}

// Busy returns all non-idle cycles (injected stalls and fetch stalls count
// as idle: the node does no work while stalled).
func (b *Breakdown) Busy() sim.Time {
	var t sim.Time
	for c, v := range b.Cycles {
		switch sim.Category(c) {
		case sim.Idle, sim.Stall, sim.FetchStall:
		default:
			t += v
		}
	}
	return t
}

// CommOverhead returns cycles spent on messaging mechanics.
func (b *Breakdown) CommOverhead() sim.Time {
	return b.Cycles[sim.SendOv] + b.Cycles[sim.RecvOv] + b.Cycles[sim.PollOv] + b.Cycles[sim.HandlerOv]
}

// Local returns cycles of local computation, including memory-system and
// runtime scheduling costs (and hashing, for the caching runtime).
func (b *Breakdown) Local() sim.Time {
	return b.Cycles[sim.Compute] + b.Cycles[sim.MemOv] + b.Cycles[sim.SchedOv] + b.Cycles[sim.HashOv]
}

// add accumulates o into b.
func (b *Breakdown) add(o Breakdown) {
	for c := range b.Cycles {
		b.Cycles[c] += o.Cycles[c]
	}
	b.MsgsSent += o.MsgsSent
	b.BytesSent += o.BytesSent
	b.MsgsRecv += o.MsgsRecv
	b.BytesRecv += o.BytesRecv
	b.CacheHits += o.CacheHits
	b.CacheMisses += o.CacheMisses
}

// HitRate returns the data-cache model hit rate (0 when untouched).
func (b *Breakdown) HitRate() float64 {
	total := b.CacheHits + b.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(b.CacheHits) / float64(total)
}

// RTStats are runtime-level counters reported by the DPA/caching/blocking
// runtimes (summed over nodes when merged).
type RTStats struct {
	// ThreadsRun counts executed non-blocking threads.
	ThreadsRun int64
	// Spawns counts thread-creation sites executed.
	Spawns int64
	// LocalHits counts spawns whose pointer was local or replicated.
	LocalHits int64
	// Reuses counts spawns satisfied by an already-arrived (or cached) copy
	// without a new request.
	Reuses int64
	// Fetches counts distinct objects requested from remote owners.
	Fetches int64
	// ReqMsgs counts request messages (Fetches/ReqMsgs = aggregation factor).
	ReqMsgs int64
	// PeakOutstanding is the peak count of suspended threads (max over
	// nodes of |M| entries times waiters plus the ready queue).
	PeakOutstanding int64
	// PeakArrivedBytes is the peak bytes of renamed (arrived) object copies
	// held at once — the memory cost of a strip.
	PeakArrivedBytes int64
	// Abandoned counts suspended threads given up because their object's
	// owner became unreachable (graceful degradation under fault
	// injection).
	Abandoned int64
	// Refetches counts fetches of objects this node had already fetched
	// earlier in the phase (and since dropped — at a strip boundary under
	// DPA, by eviction under caching, on every re-access under blocking).
	// In planned mode any refetch counts the strip as a misprediction.
	Refetches int64
	// StripGrows/StripShrinks count strip-size changes made in planned
	// mode (zero for static runs).
	StripGrows   int64
	StripShrinks int64
	// FinalStrip is the strip size planned mode ended on (max over nodes;
	// zero for static runs).
	FinalStrip int64
	// PlanStrips counts strip-boundary decisions made by the predictive
	// planner; PlanMispredicts counts the subset whose outcome broke a model
	// promise (budget overflow, refetch, or uncovered stall). The proposal is
	// installed either way. Zero outside planner mode.
	PlanStrips      int64
	PlanMispredicts int64
	// PlanPriorHits counts planner decisions taken from a cross-phase prior
	// instead of cold state: warm-started first strips and affinity-shaped
	// loops. Zero on a phase's first contact and whenever priors are off.
	PlanPriorHits int64
	// PriorBytes is the cross-phase prior table's memory footprint (max
	// over nodes when merged), charged against the planner's renamed-copy
	// budget headroom.
	PriorBytes int64
	// ShapedRuns counts the owner-major runs emitted by affinity-shaped
	// loops (one run per distinct predicted owner per shaped loop).
	ShapedRuns int64
}

// merge combines counters from another node or phase.
func (r *RTStats) merge(o RTStats) {
	r.ThreadsRun += o.ThreadsRun
	r.Spawns += o.Spawns
	r.LocalHits += o.LocalHits
	r.Reuses += o.Reuses
	r.Fetches += o.Fetches
	r.ReqMsgs += o.ReqMsgs
	r.Abandoned += o.Abandoned
	r.Refetches += o.Refetches
	r.StripGrows += o.StripGrows
	r.StripShrinks += o.StripShrinks
	r.PlanStrips += o.PlanStrips
	r.PlanMispredicts += o.PlanMispredicts
	r.PlanPriorHits += o.PlanPriorHits
	r.ShapedRuns += o.ShapedRuns
	if o.PriorBytes > r.PriorBytes {
		r.PriorBytes = o.PriorBytes
	}
	if o.FinalStrip > r.FinalStrip {
		r.FinalStrip = o.FinalStrip
	}
	if o.PeakOutstanding > r.PeakOutstanding {
		r.PeakOutstanding = o.PeakOutstanding
	}
	if o.PeakArrivedBytes > r.PeakArrivedBytes {
		r.PeakArrivedBytes = o.PeakArrivedBytes
	}
}

// FaultStats aggregates fault-injection and reliability-protocol counters
// across nodes: what the fault plan did to the run (injected) and what the
// recovery protocol did about it.
type FaultStats struct {
	// Injected by the fault plan (machine layer).
	Dropped    int64 // messages lost in the network
	Duplicated int64 // messages delivered twice
	Jittered   int64 // messages delayed beyond nominal transit
	Stalls     int64 // transient node stalls
	Crashes    int64 // nodes permanently crashed

	// Reliability protocol (fm layer).
	Retransmits    int64 // frames resent after a timeout
	Exhausted      int64 // frames abandoned after the retry cap
	AcksSent       int64 // acks transmitted
	DupsSuppressed int64 // received frames discarded as duplicates
	UnknownHandler int64 // messages naming an unregistered handler
	Probes         int64 // liveness probes sent to silent peers (crash runs)
}

// Any reports whether any counter is non-zero.
func (f *FaultStats) Any() bool { return *f != FaultStats{} }

// Add accumulates o into f.
func (f *FaultStats) Add(o FaultStats) {
	f.Dropped += o.Dropped
	f.Duplicated += o.Duplicated
	f.Jittered += o.Jittered
	f.Stalls += o.Stalls
	f.Crashes += o.Crashes
	f.Retransmits += o.Retransmits
	f.Exhausted += o.Exhausted
	f.AcksSent += o.AcksSent
	f.DupsSuppressed += o.DupsSuppressed
	f.UnknownHandler += o.UnknownHandler
	f.Probes += o.Probes
}

// AdaptPoint is one strip-size decision in planned mode: during
// top-level loop Loop of a phase, the strip size for the next strip became
// Strip. Traces are recorded on node 0 (every node adapts independently;
// node 0 is the representative shown in run tables).
type AdaptPoint struct {
	Loop  int32
	Strip int32
}

// maxAdaptTrace caps the adaptation trace kept on a Run when phases merge,
// so long multi-phase runs stay bounded.
const maxAdaptTrace = 128

// Run is the result of one simulated phase (or the merge of several).
type Run struct {
	Makespan sim.Time
	Nodes    []Breakdown
	RT       RTStats
	// Adapt is node 0's strip-adaptation trace (empty for static runs).
	// Like every other field it is deterministic, so it participates in the
	// cross-engine Diff.
	Adapt []AdaptPoint
	// Faults aggregates fault-injection and reliability counters; the zero
	// value means a fault-free run.
	Faults FaultStats
	// Err is non-nil when the phase degraded instead of completing cleanly
	// (unreachable destinations, unknown handlers, engine deadlock under
	// faults). Deterministic for a given seed, like every other field.
	Err error
	// Timeline is the activity trace when the machine config enabled it
	// (Config.TraceBins > 0). When phases are merged, their timelines are
	// concatenated: each phase's bins are shifted by the makespan of the
	// phases before it, so the merged timeline covers the whole run.
	Timeline *machine.Timeline
	// Host carries the engine's host-side scheduling counters (worker
	// shards, resumes, steals, parks, barrier wait). Unlike every field
	// above it describes the engine, not the simulation — it differs between
	// engines, and steal counts and waits depend on real-time races — so it
	// is excluded from Diff/Equal and from the deterministic Table output.
	Host *HostSched
}

// HostSched is the engine's host-side scheduling record for a run: how the
// simulated processes were partitioned and how host work actually moved
// between workers. Purely diagnostic; never part of result identity.
type HostSched struct {
	// Workers is the resolved worker-shard count (1 under the sequential
	// engine, and for the parallel engine at one worker).
	Workers int
	// Windows counts conservative lookahead windows opened. This one IS a
	// pure function of virtual time (identical at every worker count of two
	// or more), but it lives here because only windows open them (0 at one
	// worker).
	Windows int64
	// PerWorker is the per-shard counter block.
	PerWorker []sim.WorkerStats
}

// Resumes returns the total coroutine switches into a process (a stolen
// process is resumed by its thief). At one worker it is a pure function of
// program and lookahead; with windows it can differ by a few from run to run (a process racing a post into a wait parks
// blocked or ready, see sim.EncodeProcs, and a blocked one is admitted once
// more).
func (h *HostSched) Resumes() int64 {
	var n int64
	for _, w := range h.PerWorker {
		n += w.Resumes + w.Stolen
	}
	return n
}

// Steals returns total cross-shard steals across workers.
func (h *HostSched) Steals() int64 {
	var n int64
	for _, w := range h.PerWorker {
		n += w.Steals
	}
	return n
}

// Parks returns the barrier waits, across workers, that ended asleep rather
// than in the spin.
func (h *HostSched) Parks() int64 {
	var n int64
	for _, w := range h.PerWorker {
		n += w.Parks
	}
	return n
}

// String renders a compact one-line summary, e.g. for stderr diagnostics:
// wait is each worker's host time in the window barrier, in ms.
func (h *HostSched) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d windows=%d resumes=%d steals=%d parks=%d wait=",
		h.Workers, h.Windows, h.Resumes(), h.Steals(), h.Parks())
	for i, w := range h.PerWorker {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%.1f", float64(w.WaitNs)/1e6)
	}
	b.WriteString("ms")
	return b.String()
}

// Collect gathers per-node breakdowns from a machine after Run.
func Collect(m *machine.Machine, makespan sim.Time) Run {
	r := Run{Makespan: makespan, Nodes: make([]Breakdown, len(m.Nodes())), Timeline: m.Trace()}
	for i, n := range m.Nodes() {
		r.Nodes[i] = Breakdown{
			Cycles:      n.Charges(),
			MsgsSent:    n.MsgsSent,
			BytesSent:   n.BytesSent,
			MsgsRecv:    n.MsgsRecv,
			BytesRecv:   n.BytesRecv,
			CacheHits:   n.CacheHits,
			CacheMisses: n.CacheMisses,
		}
		fs := FaultStats{
			Dropped:    n.FaultDrops,
			Duplicated: n.FaultDups,
			Jittered:   n.FaultJitter,
			Stalls:     n.FaultStalls,
		}
		if n.Crashed {
			fs.Crashes = 1
		}
		r.Faults.Add(fs)
	}
	if ws := m.WorkerStats(); ws != nil {
		r.Host = &HostSched{Workers: len(ws), Windows: m.EngineWindows(), PerWorker: ws}
	}
	return r
}

// Merge accumulates another phase into r: makespans add (phases run back to
// back), node breakdowns add elementwise, runtime counters merge.
func (r *Run) Merge(o Run) {
	// The offset for o's timeline is the run length before o — captured
	// before the makespans are added.
	timelineOff := r.Makespan
	r.Makespan += o.Makespan
	if r.Nodes == nil {
		r.Nodes = make([]Breakdown, len(o.Nodes))
	}
	if len(r.Nodes) != len(o.Nodes) {
		panic(fmt.Sprintf("stats: merging runs with %d and %d nodes", len(r.Nodes), len(o.Nodes)))
	}
	for i := range o.Nodes {
		r.Nodes[i].add(o.Nodes[i])
	}
	r.RT.merge(o.RT)
	if room := maxAdaptTrace - len(r.Adapt); room > 0 {
		a := o.Adapt
		if len(a) > room {
			a = a[:room]
		}
		r.Adapt = append(r.Adapt, a...)
	}
	r.Faults.Add(o.Faults)
	r.Err = joinErrs(r.Err, o.Err)
	if o.Host != nil {
		if r.Host == nil {
			h := *o.Host
			h.PerWorker = append([]sim.WorkerStats(nil), o.Host.PerWorker...)
			r.Host = &h
		} else {
			r.Host.Windows += o.Host.Windows
			if len(r.Host.PerWorker) == len(o.Host.PerWorker) {
				for i, w := range o.Host.PerWorker {
					r.Host.PerWorker[i].Resumes += w.Resumes
					r.Host.PerWorker[i].Stolen += w.Stolen
					r.Host.PerWorker[i].Steals += w.Steals
					r.Host.PerWorker[i].Parks += w.Parks
					r.Host.PerWorker[i].WaitNs += w.WaitNs
				}
			}
		}
	}
	if o.Timeline != nil {
		if r.Timeline == nil {
			r.Timeline = &machine.Timeline{BinWidth: o.Timeline.BinWidth}
		}
		// Concatenate rather than replace: earlier phases' activity used to
		// be silently dropped here, leaving only the last phase's trace.
		r.Timeline.AppendShifted(o.Timeline, timelineOff)
	}
}

// MergeRT folds one node's runtime counters into the run.
func (r *Run) MergeRT(o RTStats) { r.RT.merge(o) }

// MergeFaults folds protocol-level fault counters into the run.
func (r *Run) MergeFaults(o FaultStats) { r.Faults.Add(o) }

// AddErr records a degradation error on the run (nil is a no-op).
func (r *Run) AddErr(err error) { r.Err = joinErrs(r.Err, err) }

// joinErrs is errors.Join with nil short-circuits, keeping Err nil (not a
// non-nil empty join) for clean runs.
func joinErrs(a, b error) error {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return errors.Join(a, b)
}

// Total returns the cluster-wide breakdown (sum over nodes).
func (r *Run) Total() Breakdown {
	var t Breakdown
	for i := range r.Nodes {
		t.add(r.Nodes[i])
	}
	return t
}

// AvgPerNode returns the average per-node cycles in each of the three
// paper-figure categories: local computation, communication overhead, idle
// (which absorbs injected stall time — the node does no work either way).
func (r *Run) AvgPerNode() (local, comm, idle sim.Time) {
	if len(r.Nodes) == 0 {
		return 0, 0, 0
	}
	t := r.Total()
	n := sim.Time(len(r.Nodes))
	return t.Local() / n, t.CommOverhead() / n,
		(t.Cycles[sim.Idle] + t.Cycles[sim.Stall] + t.Cycles[sim.FetchStall]) / n
}

// busiest returns the node with the most Busy cycles (the lowest id on a
// tie), that count, and the sum over all nodes: the node a run whose phases
// end in barriers waited for.
func (r *Run) busiest() (node int, most, sum sim.Time) {
	for i := range r.Nodes {
		b := r.Nodes[i].Busy()
		sum += b
		if b > most {
			node, most = i, b
		}
	}
	return node, most, sum
}

// Imbalance returns the busiest node's Busy cycles over the mean node's, and
// which node that is: 1 is perfect balance, and a phase cannot finish sooner
// than its busiest node, so anything above 1 is time the other nodes spend
// waiting however well communication is hidden. The ratio is 0 for a run
// that did no work.
func (r *Run) Imbalance() (ratio float64, node int) {
	node, most, sum := r.busiest()
	if sum == 0 {
		return 0, 0
	}
	return float64(most) * float64(len(r.Nodes)) / float64(sum), node
}

// MsgsSent returns total messages sent across nodes.
func (r *Run) MsgsSent() int64 { return r.Total().MsgsSent }

// BytesSent returns total bytes sent across nodes.
func (r *Run) BytesSent() int64 { return r.Total().BytesSent }

// Summary renders a one-line summary at the given clock rate.
func (r *Run) Summary(clockHz float64) string {
	local, comm, idle := r.AvgPerNode()
	sec := func(t sim.Time) float64 { return float64(t) / clockHz }
	return fmt.Sprintf("time=%.4fs local=%.4fs comm=%.4fs idle=%.4fs msgs=%d bytes=%d",
		sec(r.Makespan), sec(local), sec(comm), sec(idle), r.MsgsSent(), r.BytesSent())
}

// Equal reports whether two runs have identical observable statistics:
// makespan, every node's breakdown, and the merged runtime counters. The
// Timeline is ignored (it is a presentation artifact, not a result). This is
// the bit-identity check used to validate the sequential and parallel
// engines against each other.
func (r *Run) Equal(o Run) bool { return r.Diff(o) == "" }

// Diff returns a description of the first difference between two runs'
// observable statistics, or "" when they are identical. The Timeline is
// ignored.
func (r *Run) Diff(o Run) string {
	if r.Makespan != o.Makespan {
		return fmt.Sprintf("makespan %d != %d", r.Makespan, o.Makespan)
	}
	if len(r.Nodes) != len(o.Nodes) {
		return fmt.Sprintf("node count %d != %d", len(r.Nodes), len(o.Nodes))
	}
	for i := range r.Nodes {
		if r.Nodes[i] != o.Nodes[i] {
			return fmt.Sprintf("node %d breakdown %+v != %+v", i, r.Nodes[i], o.Nodes[i])
		}
	}
	if r.RT != o.RT {
		return fmt.Sprintf("runtime counters %+v != %+v", r.RT, o.RT)
	}
	if !slices.Equal(r.Adapt, o.Adapt) {
		return fmt.Sprintf("adaptation trace %v != %v", r.Adapt, o.Adapt)
	}
	if r.Faults != o.Faults {
		return fmt.Sprintf("fault counters %+v != %+v", r.Faults, o.Faults)
	}
	if es, os := errString(r.Err), errString(o.Err); es != os {
		return fmt.Sprintf("errors %q != %q", es, os)
	}
	return ""
}

// adaptTrace renders node 0's strip-change sequence compactly, grouped by
// top-level loop: "L0:→100→200; L1:→400". An empty trace (the strip
// never moved) renders as "held".
func adaptTrace(a []AdaptPoint) string {
	if len(a) == 0 {
		return "held"
	}
	var b strings.Builder
	last := int32(-1)
	for _, p := range a {
		if p.Loop != last {
			if last >= 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "L%d:", p.Loop)
			last = p.Loop
		}
		fmt.Fprintf(&b, "→%d", p.Strip)
	}
	return b.String()
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Table renders the full result as a multi-line table at the given clock
// rate: the time breakdown, a stacked bar, message traffic, and the runtime
// counters. This is the standard presentation used by the command-line
// tools.
func (r *Run) Table(clockHz float64) string {
	sec := func(t sim.Time) float64 { return float64(t) / clockHz }
	local, comm, idle := r.AvgPerNode()
	var b strings.Builder
	fmt.Fprintf(&b, "time      %10.3f s (simulated, %.0f MHz clock)\n", sec(r.Makespan), clockHz/1e6)
	fmt.Fprintf(&b, "local     %10.3f s/node\n", sec(local))
	fmt.Fprintf(&b, "comm ovhd %10.3f s/node\n", sec(comm))
	// Idle is waiting with nothing to do (in the apps, at a phase's closing
	// barrier), fetch is waiting inside Drain for replies.
	total, n := r.Total(), sim.Time(max(1, len(r.Nodes)))
	fmt.Fprintf(&b, "idle      %10.3f s/node (barrier %.3f, fetch %.3f",
		sec(idle), sec(total.Cycles[sim.Idle]/n), sec(total.Cycles[sim.FetchStall]/n))
	if st := total.Cycles[sim.Stall]; st > 0 {
		fmt.Fprintf(&b, ", stall %.3f", sec(st/n))
	}
	b.WriteString(")\n")
	if im, node := r.Imbalance(); im > 0 {
		fmt.Fprintf(&b, "balance   max/mean busy %.2f (node %d)\n", im, node)
	}
	fmt.Fprintf(&b, "breakdown |%s|\n", r.BarChart(50))
	fmt.Fprintf(&b, "messages  %d (%.2f MB)\n", r.MsgsSent(), float64(r.BytesSent())/1e6)
	rt := r.RT
	fmt.Fprintf(&b, "threads   %d run, %d spawns (%d local, %d reused, %d fetched)\n",
		rt.ThreadsRun, rt.Spawns, rt.LocalHits, rt.Reuses, rt.Fetches)
	if rt.ReqMsgs > 0 {
		fmt.Fprintf(&b, "requests  %d messages, %.1f objects/message\n",
			rt.ReqMsgs, float64(rt.Fetches)/float64(rt.ReqMsgs))
	}
	fmt.Fprintf(&b, "peak      %d outstanding threads, %.1f KB renamed copies\n",
		rt.PeakOutstanding, float64(rt.PeakArrivedBytes)/1024)
	if rt.FinalStrip > 0 {
		fmt.Fprintf(&b, "adaptive  strip %s final %d (%d grows, %d shrinks), %d refetches\n",
			adaptTrace(r.Adapt), rt.FinalStrip, rt.StripGrows, rt.StripShrinks, rt.Refetches)
	}
	if rt.PlanStrips > 0 {
		fmt.Fprintf(&b, "planner   %d strips planned, %d mispredicted\n",
			rt.PlanStrips, rt.PlanMispredicts)
	}
	if rt.PlanPriorHits > 0 {
		fmt.Fprintf(&b, "priors    %d prior hits, %d shaped runs, %.1f KB prior tables\n",
			rt.PlanPriorHits, rt.ShapedRuns, float64(rt.PriorBytes)/1024)
	}
	if f := r.Faults; f.Any() {
		fmt.Fprintf(&b, "faults    %d dropped, %d duplicated, %d jittered, %d stalls, %d crashed\n",
			f.Dropped, f.Duplicated, f.Jittered, f.Stalls, f.Crashes)
		fmt.Fprintf(&b, "recovery  %d retransmits, %d acks, %d dups suppressed, %d exhausted, %d abandoned, %d probes, %d unknown handler\n",
			f.Retransmits, f.AcksSent, f.DupsSuppressed, f.Exhausted, rt.Abandoned, f.Probes, f.UnknownHandler)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "degraded  %v\n", r.Err)
	}
	return b.String()
}

// BarChart renders a textual stacked bar of the local/comm/idle breakdown,
// in the spirit of the paper's figures. width is the bar length in runes for
// the makespan.
func (r *Run) BarChart(width int) string {
	local, comm, idle := r.AvgPerNode()
	total := local + comm + idle
	if total == 0 {
		return strings.Repeat(".", width)
	}
	n := func(t sim.Time) int { return int(int64(t) * int64(width) / int64(total)) }
	l, c := n(local), n(comm)
	i := width - l - c
	if i < 0 {
		i = 0
	}
	return strings.Repeat("#", l) + strings.Repeat("+", c) + strings.Repeat(".", i)
}
