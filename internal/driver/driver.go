// Package driver provides the common harness for running one SPMD
// application phase under any of the three runtimes (DPA, software caching,
// blocking) on a simulated machine, and for collecting merged statistics.
package driver

import (
	"errors"
	"fmt"

	"dpa/internal/blocking"
	"dpa/internal/caching"
	"dpa/internal/core"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Runtime is the common surface of the three runtimes. Applications are
// written against it once and run under any scheme.
type Runtime interface {
	// Template registers a thread body — one per creation site, once per
	// node per phase — and returns the id SpawnT takes. The id is valid on
	// this runtime until the phase ends. A runtime recycled from this one's
	// storage (the next phase on the same store, spec and node count)
	// panics on it; a fresh runtime numbers its templates from 1 again.
	Template(fn func(obj gptr.Object, a0, a1 uint64)) int
	// SpawnT registers a pointer-labeled non-blocking thread: template id
	// will run on p's object with the frame words a0 and a1. A thread
	// spawned this way is a pointer-free value and costs no host
	// allocation.
	SpawnT(p gptr.Ptr, id int, a0, a1 uint64)
	// Spawn is the closure convenience over SpawnT, for a thread whose frame
	// does not fit two words (core.Closures).
	Spawn(p gptr.Ptr, fn func(obj gptr.Object))
	// Drain completes all spawned (and transitively spawned) work.
	Drain()
	// ForAll is the top-level concurrent loop (strip-mined under DPA).
	ForAll(n int, spawnIter func(i int))
	// Stats returns the node's runtime counters.
	Stats() stats.RTStats
	// Err returns the node's degradation error (work abandoned because a
	// peer became unreachable under fault injection), nil for a clean run.
	Err() error
}

// Kind names a runtime scheme.
type Kind string

// The available runtime schemes.
const (
	DPA      Kind = "dpa"
	Caching  Kind = "caching"
	Blocking Kind = "blocking"
)

// Spec selects a runtime scheme and its configuration for a run.
type Spec struct {
	Kind     Kind
	Core     core.Config     // used when Kind == DPA
	Caching  caching.Config  // used when Kind == Caching
	Blocking blocking.Config // used when Kind == Blocking
}

// SpecOption customizes the DPA configuration of a Spec built by DPASpec.
// Every other knob is a field of the Spec's runtime config, set directly.
type SpecOption func(*Spec)

// WithAggLimit sets the DPA aggregation limit: the maximum number of
// pointers per request message (1 disables aggregation, 0 means unlimited).
func WithAggLimit(n int) SpecOption { return func(s *Spec) { s.Core.AggLimit = n } }

// WithShape selects DPA's planned mode, the alternative to the paper's static
// strip: a closed-form cost model sizes every strip and the per-destination
// aggregation limits from the previous strip's reuse summary, renamed copies
// are kept across strip boundaries while they fit the memory budget, and —
// when a multi-phase runner passes a PriorStore via WithPriors — repeated
// phases are planned from the previous phase's measured signals, with
// top-level iterations reordered into owner-major runs (affinity-shaped
// tiles, hence the name). Either queue discipline applies (Core.LIFO).
func WithShape() SpecOption { return func(s *Spec) { s.Core.Planned = true } }

// WithPipeline enables or disables DPA message pipelining (eager request
// flushing that overlaps communication with thread execution).
func WithPipeline(on bool) SpecOption { return func(s *Spec) { s.Core.Pipeline = on } }

// DPASpec returns a Spec for DPA with the given strip size and the default
// communication optimizations enabled, then applies opts.
func DPASpec(strip int, opts ...SpecOption) Spec {
	s := Spec{Kind: DPA, Core: core.Default()}
	s.Core.Strip = strip
	for _, o := range opts {
		o(&s)
	}
	return s
}

// CachingSpec returns a Spec for the software-caching runtime.
func CachingSpec() Spec { return Spec{Kind: Caching, Caching: caching.Default()} }

// BlockingSpec returns a Spec for the blocking runtime.
func BlockingSpec() Spec { return Spec{Kind: Blocking, Blocking: blocking.Default()} }

// ErrBadSpec is the sentinel matched by errors.Is for every rejection of
// Spec.Validate: an unknown runtime kind or an invalid configuration of the
// selected runtime.
var ErrBadSpec = errors.New("driver: invalid runtime spec")

// specError marks a runtime's rejection of its configuration as a bad spec
// while keeping the runtime's message.
type specError struct{ error }

func (e specError) Unwrap() []error { return []error{ErrBadSpec, e.error} }

// Validate checks the spec's selected runtime configuration. Every error it
// returns wraps ErrBadSpec.
func (s Spec) Validate() error {
	var err error
	switch s.Kind {
	case DPA:
		err = s.Core.Validate()
	case Caching:
		err = s.Caching.Validate()
	case Blocking:
		err = s.Blocking.Validate()
	default:
		err = fmt.Errorf("driver: unknown runtime kind %q", string(s.Kind))
	}
	if err != nil {
		return specError{err}
	}
	return nil
}

// String names the spec for table rows.
func (s Spec) String() string {
	switch s.Kind {
	case DPA:
		if s.Core.Planned {
			return fmt.Sprintf("DPA-PS(%d)", s.Core.Strip)
		}
		return fmt.Sprintf("DPA(%d)", s.Core.Strip)
	case Caching:
		return "Caching"
	case Blocking:
		return "Blocking"
	}
	return string(s.Kind)
}

// Protos bundles the three runtimes' registered protocols on one net.
type Protos struct {
	Net      *fm.Net
	core     *core.Proto
	caching  *caching.Proto
	blocking *caching.Proto
}

// NewProtos creates a net with all runtime protocols registered.
func NewProtos() *Protos {
	net := fm.NewNet()
	return &Protos{
		Net:      net,
		core:     core.RegisterProto(net),
		caching:  caching.RegisterProto(net),
		blocking: blocking.RegisterProto(net),
	}
}

// newRuntime instantiates the runtime selected by spec on one node, on the
// storage of prev, the node's runtime from the previous phase under the same
// spec (nil: fresh storage). It validates the spec's configuration and
// returns a descriptive error when it is rejected.
func (p *Protos) newRuntime(spec Spec, ep *fm.EP, space *gptr.Space, prev Runtime) (Runtime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case DPA:
		prev, _ := prev.(*core.RT)
		return core.New(p.core, ep, space, spec.Core, prev), nil
	case Caching:
		prev, _ := prev.(*caching.RT)
		return caching.New(p.caching, ep, space, spec.Caching, prev), nil
	case Blocking:
		prev, _ := prev.(*blocking.RT)
		return blocking.New(p.blocking, ep, space, spec.Blocking, prev), nil
	}
	panic("driver: unreachable kind " + string(spec.Kind)) // Validate rejected it
}

// Engine is a first-class engine selection: which simulation engine drives a
// phase, plus the parallel engine's worker count. Build one with Sequential
// or Parallel and select it with
// mcfg.Engine, mcfg.EngineTuning = e.Kind(), e.Tuning(). The zero value is
// the sequential engine.
//
// Every Engine produces bit-identical simulation results; the worker count
// affects only host execution speed. The worker count is checked against the
// node count by machine.Config.Validate.
type Engine struct {
	kind   sim.EngineKind
	tuning sim.Tuning
}

// EngineOption tunes an Engine built by Parallel.
type EngineOption func(*Engine)

// Sequential returns the sequential engine: one simulated node runs at a
// time, in deterministic (wake, id) order. The baseline every other engine
// must match bit for bit.
func Sequential() Engine { return Engine{kind: sim.Sequential} }

// Parallel returns the sharded work-stealing parallel engine with the given
// options. Its windows are the machine's minimum message delay wide and idle
// workers always steal; the default worker count is min(GOMAXPROCS, nodes).
func Parallel(opts ...EngineOption) Engine {
	e := Engine{kind: sim.Parallel}
	for _, o := range opts {
		o(&e)
	}
	return e
}

// Workers sets the parallel engine's worker-shard count. 0 means auto
// (min(GOMAXPROCS, nodes)); explicit values must be in [1, nodes] — out of
// range is rejected by config validation with a *sim.TuningError.
func Workers(n int) EngineOption { return func(e *Engine) { e.tuning.Workers = n } }

// Kind returns the underlying engine kind.
func (e Engine) Kind() sim.EngineKind { return e.kind }

// Tuning returns the engine's host-performance tuning.
func (e Engine) Tuning() sim.Tuning { return e.tuning }

// String names the engine for table rows, e.g. "parallel(workers=4)".
func (e Engine) String() string {
	if e.kind == sim.Sequential {
		return "sequential"
	}
	s := "parallel"
	if e.tuning.Workers > 0 {
		s += fmt.Sprintf("(workers=%d)", e.tuning.Workers)
	}
	return s
}

// RunOption adjusts how RunPhase executes a phase beyond what
// machine.Config describes: cross-engine validation and cross-phase priors.
// The engine, tracing, faults and checkpoints are Config fields.
type RunOption func(*runConfig)

type runConfig struct {
	validate  bool
	prior     *PriorStore
	priorKind string
}

// WithValidation runs the phase a second time under the other engine and
// panics if the two runs' statistics diverge — a determinism check for the
// engine pair — or if either run changed the number of objects in the space,
// which must be read-only while a phase runs (see gptr.Space). The body must
// be re-runnable: it is executed twice, so any state it mutates outside the
// runtime (e.g. application arrays) is updated twice. The check run records into no tracer (mcfg.Obs) and fires no
// checkpoint (mcfg.Checkpoint), so each is seen exactly once.
func WithValidation() RunOption {
	return func(rc *runConfig) { rc.validate = true }
}

// RunPhase executes one SPMD phase: body runs on every node with its
// runtime; a barrier closes the phase (nodes keep serving until everyone is
// done). The returned Run has per-node breakdowns and merged runtime
// counters. mcfg chooses the engine, tracing, faults and checkpoint; with
// no options the phase runs exactly as it configures.
func RunPhase(mcfg machine.Config, space *gptr.Space, spec Spec,
	body func(rt Runtime, ep *fm.EP, nd *machine.Node), opts ...RunOption) stats.Run {

	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	if err := spec.Validate(); err != nil {
		panic("driver: invalid spec: " + err.Error())
	}
	// The validation run must see the same pre-phase priors as the primary
	// run without the two folding into one table, so it gets a deep copy
	// taken before the primary run mutates the store.
	var checkPrior *PriorStore
	objects := 0
	if rc.validate {
		objects = space.Len()
		if rc.prior != nil {
			checkPrior = rc.prior.Clone()
			defer checkPrior.Close()
		}
	}
	run := runOnce(mcfg, space, spec, body, rc.prior, rc.priorKind)
	if rc.validate {
		readOnly(space, objects)
		other := mcfg
		// The check run must not re-record into the caller's tracer: it
		// would duplicate every event and advance the phase offset twice.
		// Likewise it must not re-fire the checkpoint: Deliver is one-shot.
		other.Obs = nil
		other.Checkpoint = nil
		if mcfg.Engine == sim.Parallel {
			other.Engine = sim.Sequential
		} else {
			other.Engine = sim.Parallel
		}
		check := runOnce(other, space, spec, body, checkPrior, rc.priorKind)
		readOnly(space, objects)
		if diff := run.Diff(check); diff != "" {
			panic(fmt.Sprintf("driver: engine validation failed (%v vs %v): %s",
				mcfg.Engine, other.Engine, diff))
		}
	}
	return run
}

// readOnly panics unless the space still holds the objects it held before
// the phase ran.
func readOnly(space *gptr.Space, objects int) {
	if n := space.Len(); n != objects {
		panic(fmt.Sprintf("driver: the phase changed the space from %d to %d objects; allocate before the machine runs",
			objects, n))
	}
}

// runOnce executes the phase and collects statistics. The machine, its
// endpoints and the previous phase's runtimes come from the run's store (a
// fresh machine and fresh runtimes without one, closed when the phase ends),
// and the store keeps them for the next phase only if this one ends cleanly.
// Under fault injection the endpoints quiesce the reliability protocol once
// before the closing barrier — while every peer still polls and acks — and
// once after, for the barrier traffic itself; both are no-ops when the
// layer is off.
func runOnce(mcfg machine.Config, space *gptr.Space, spec Spec,
	body func(rt Runtime, ep *fm.EP, nd *machine.Node),
	prior *PriorStore, priorKind string) stats.Run {

	clean := false
	if prior != nil {
		defer func() {
			if !clean {
				prior.dropRunStorage()
			}
		}()
	}
	ck := mcfg.Checkpoint
	pm := prior.machine(mcfg)
	m := pm.m
	if prior == nil {
		defer m.Close()
	}
	rts := make([]Runtime, mcfg.Nodes)
	eps := make([]*fm.EP, mcfg.Nodes)
	// Resolve the phase's prior tables on the host before the machine runs:
	// node bodies only read the slice, so the parallel engine's workers
	// never race on the store's map.
	var ptabs []*core.PriorTable
	if prior != nil && spec.Kind == DPA && spec.Core.Planned {
		ptabs = prior.tables(priorKind, mcfg.Nodes)
	}
	prevs := prior.runtimes(spec, mcfg.Nodes)
	var ckErr error
	if at, ok := ck.Target(); ok {
		m.CheckpointAt(at, func() {
			snap := captureSnapshot(ck, m, rts, eps, prior)
			if ck.Verify != nil {
				if d := ck.Verify.Diff(snap); d != "" {
					ckErr = &sim.SnapshotDivergedError{Detail: d}
				}
			}
			ck.MarkDone()
			if ck.Deliver != nil {
				ck.Deliver(snap, ckErr)
			}
		})
	}
	makespan, engErr := m.Run(func(nd *machine.Node) {
		ep := pm.endpoint(nd)
		rt, err := pm.protos.newRuntime(spec, ep, space, prevs[nd.ID()])
		if err != nil {
			panic(err) // spec was validated before the machine started
		}
		rts[nd.ID()] = rt
		eps[nd.ID()] = ep
		if ptabs != nil {
			if pa, ok := rt.(priorAttacher); ok {
				pa.AttachPrior(ptabs[nd.ID()])
			}
		}
		body(rt, ep, nd)
		ep.Quiesce()
		ep.Barrier()
		ep.Quiesce()
	})
	if engErr != nil && !mcfg.Faults.Active() {
		// Without fault injection a deadlock is a runtime bug; fail loudly
		// as before. Under faults it is a legitimate degraded outcome
		// (e.g. a node blocked on a peer that declared it unreachable) and
		// is surfaced through the run result instead.
		panic(engErr)
	}
	ck.Advance(makespan)
	run := stats.Collect(m, makespan)
	run.AddErr(engErr)
	run.AddErr(ckErr)
	// Crashed nodes surface as typed partial-result errors, in node order so
	// the joined error string is deterministic.
	for _, nd := range m.Nodes() {
		if nd.Crashed {
			run.AddErr(&machine.CrashError{Node: nd.ID(), At: nd.CrashedAt})
		}
	}
	// Fold each node's reuse summary into its cross-phase prior table at the
	// phase seam, in node-index order, before the counters are merged (the
	// fold refreshes PriorBytes). Host-real-time never enters the fold, so
	// the store stays a pure function of simulated history.
	if ptabs != nil {
		for _, rt := range rts {
			if rt == nil {
				continue
			}
			if pf, ok := rt.(priorFolder); ok {
				pf.FoldPrior()
			}
		}
	}
	for _, rt := range rts {
		if rt == nil {
			continue // node never reached its body (deadlocked machine)
		}
		run.MergeRT(rt.Stats())
		run.AddErr(rt.Err())
	}
	// Node 0's strip-adaptation trace is the run's representative (every
	// node adapts independently; recording all of them would swamp tables).
	// Copied: the runtime's own slice is storage the next phase reuses.
	if len(rts) > 0 {
		if tr, ok := rts[0].(interface{ AdaptTrace() []stats.AdaptPoint }); ok {
			run.Adapt = append([]stats.AdaptPoint(nil), tr.AdaptTrace()...)
		}
	}
	for _, ep := range eps {
		if ep == nil {
			continue
		}
		run.MergeFaults(ep.FaultStats())
		run.AddErr(ep.Err())
	}
	// A degraded phase (abandoned fetches, a crashed node, a deadlocked
	// machine) hands nothing on: the deferred drop runs unless this is set.
	clean = run.Err == nil
	if prior != nil {
		prior.rts, prior.rtSpec = rts, spec
	}
	return run
}

// snapshotter is the optional per-runtime state encoder; runtimes that
// implement it contribute an entry to the snapshot's "rt" section.
type snapshotter interface {
	EncodeSnapshot(w *sim.SnapWriter)
}

// priorAttacher/priorFolder are the cross-phase prior hooks a runtime may
// implement (core.RT does); other runtimes simply never see priors.
type priorAttacher interface {
	AttachPrior(pt *core.PriorTable)
}

type priorFolder interface {
	FoldPrior()
}

// captureSnapshot serializes the run's complete state at a checkpoint
// boundary: engine scheduling state ("procs"), machine-level node state
// ("machine"), the messaging layer including reliability windows ("fm"), and
// runtime tables ("rt"). It runs inside the engine's checkpoint hook, when
// every simulated process is parked, so all state is quiescent.
func captureSnapshot(ck *machine.CheckpointSpec, m *machine.Machine,
	rts []Runtime, eps []*fm.EP, prior *PriorStore) *sim.Snapshot {

	snap := &sim.Snapshot{Version: sim.SnapshotVersion, Meta: ck.Meta(len(eps))}
	snap.Add("procs", m.SnapshotProcs)
	snap.Add("machine", func(w *sim.SnapWriter) {
		nodes := m.Nodes()
		w.Int(len(nodes))
		for _, nd := range nodes {
			nd.EncodeSnapshot(w)
		}
	})
	snap.Add("fm", func(w *sim.SnapWriter) {
		w.Int(len(eps))
		for _, ep := range eps {
			if ep == nil {
				w.Bool(false)
				continue
			}
			w.Bool(true)
			ep.EncodeSnapshot(w)
		}
	})
	snap.Add("rt", func(w *sim.SnapWriter) {
		w.Int(len(rts))
		for _, rt := range rts {
			enc, ok := rt.(snapshotter)
			if !ok {
				w.Bool(false)
				continue
			}
			w.Bool(true)
			enc.EncodeSnapshot(w)
		}
	})
	snap.Add("priors", func(w *sim.SnapWriter) {
		if prior == nil {
			w.Bool(false)
			return
		}
		w.Bool(true)
		prior.EncodeSnapshot(w)
	})
	return snap
}
