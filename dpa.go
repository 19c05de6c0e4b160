// Package dpa is a Go implementation of Dynamic Pointer Alignment (DPA),
// the runtime technique of Zhang & Chien, "Dynamic Pointer Alignment:
// Tiling and Communication Optimizations for Parallel Pointer-based
// Computations" (PPoPP 1997), together with everything needed to reproduce
// the paper's evaluation: a deterministic virtual-time multicomputer
// simulator modeled on the CRAY T3D, a Fast-Messages-style active-message
// layer, software-caching and blocking comparator runtimes, a thread
// partitioner for a small pointer-program IR, and the two applications
// (Barnes-Hut and 2D FMM).
//
// The quick path:
//
//	space := dpa.NewSpace(nodes)             // build a global object space
//	p := space.Alloc(owner, obj)             // place objects on owners
//	run := dpa.RunPhase(dpa.DefaultT3D(nodes), space, dpa.DPASpec(50),
//	    func(rt dpa.Runtime, ep *dpa.Endpoint, nd *dpa.Node) {
//	        visit := rt.Template(func(o dpa.Object, a0, a1 uint64) { ... })
//	        rt.SpawnT(p, visit, a0, a1) // pointer-labeled thread, two-word frame
//	        rt.Drain()
//	    })
//
// A thread body is a template registered once per node per phase; a spawned
// thread is the template's id and two frame words, which under DPA costs no
// host allocation. rt.Spawn(p, func(o dpa.Object) { ... }) is the closure
// convenience for a frame that does not fit two words.
//
// DPA runs under one of two policies: DPASpec(50) is the paper's static
// strip of 50 top-level iterations, and DPASpec(50, WithShape()) is planned
// mode, in which a cost model sizes every strip and repeated phases plan
// from the previous phase's measurements.
//
// The Spec chooses the runtime policy; the MachineConfig describes the
// machine and is the one place a run picks its simulation engine
// (Engine, EngineTuning), activity timeline (TraceBins), tracer (Obs),
// fault plan (Faults) and checkpoint (Checkpoint).
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package dpa

import (
	"dpa/internal/blocking"
	"dpa/internal/caching"
	"dpa/internal/core"
	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Core global-space types.
type (
	// Ptr is a global pointer (owner node + address).
	Ptr = gptr.Ptr
	// Object is a value that can live in the global space.
	Object = gptr.Object
	// Space is the distributed object space.
	Space = gptr.Space
)

// Machine and messaging types.
type (
	// MachineConfig describes the simulated multicomputer.
	MachineConfig = machine.Config
	// Node is one simulated processor.
	Node = machine.Node
	// Endpoint is a node's active-message endpoint.
	Endpoint = fm.EP
	// Time is a duration or instant in simulated cycles.
	Time = sim.Time
	// Engine is a first-class engine selection: which simulation engine
	// drives a phase plus its host-performance tuning. Build one with
	// Sequential or Parallel and select it with
	// cfg.Engine, cfg.EngineTuning = e.Kind(), e.Tuning().
	// Every Engine produces bit-identical simulation results.
	Engine = driver.Engine
	// EngineOption tunes an Engine built by Parallel (Workers).
	EngineOption = driver.EngineOption
)

// Sequential returns the sequential engine: one simulated node at a time, in
// deterministic virtual-time order. This is the default engine and the
// baseline every other engine must match bit for bit.
func Sequential() Engine { return driver.Sequential() }

// Parallel returns the sharded work-stealing parallel engine. Simulated
// nodes are partitioned across worker shards and run truly in parallel
// within conservative windows as wide as the machine's minimum message
// delay; idle workers steal runnable nodes from the busiest shard. Results
// stay bit-identical to Sequential. The worker count is its one knob:
//
//	e := dpa.Parallel(dpa.Workers(8))
//	cfg.Engine, cfg.EngineTuning = e.Kind(), e.Tuning()
func Parallel(opts ...EngineOption) Engine { return driver.Parallel(opts...) }

// Workers sets the parallel engine's worker count: 0 (the default) means
// min(GOMAXPROCS, nodes); explicit values must be in [1, nodes].
func Workers(n int) EngineOption { return driver.Workers(n) }

// ErrBadEngine is the sentinel matched by errors.Is for rejected engine
// tuning (a worker count out of [1, nodes]).
var ErrBadEngine = sim.ErrBadTuning

// ErrBadFaults is the sentinel matched by errors.Is for rejected fault
// parameters (a rate outside [0, 1], a negative cycle count).
var ErrBadFaults = sim.ErrBadFaults

// ErrBadSpec is the sentinel matched by errors.Is for a Spec that
// Spec.Validate rejects (an unknown runtime kind, or a runtime configuration
// out of range).
var ErrBadSpec = driver.ErrBadSpec

// Runtime selection types.
type (
	// Runtime is the common surface of the DPA, caching, and blocking
	// runtimes.
	Runtime = driver.Runtime
	// Spec selects a runtime scheme and its configuration.
	Spec = driver.Spec
	// DPAConfig configures the DPA runtime (strip size, aggregation limit,
	// pipelining, poll placement).
	DPAConfig = core.Config
	// CachingConfig configures the software-caching comparator.
	CachingConfig = caching.Config
	// BlockingConfig configures the blocking comparator.
	BlockingConfig = blocking.Config
	// RunStats is the merged result of a simulated phase.
	RunStats = stats.Run
	// Breakdown is one node's accumulated cycle and traffic counters.
	Breakdown = stats.Breakdown
	// RTStats are the merged runtime-level counters of a run.
	RTStats = stats.RTStats
)

// Fault-injection and reliability types.
type (
	// FaultConfig couples fault-injection parameters with the reliability
	// protocol's knobs; the zero value means no faults.
	FaultConfig = machine.FaultConfig
	// FaultParams are the seeded message-fault rates (drop, duplicate,
	// jitter, stall).
	FaultParams = sim.FaultParams
	// FaultStats are the merged fault and recovery counters of a run.
	FaultStats = stats.FaultStats
)

// Observability types.
type (
	// Tracer is the structured virtual-time event tracer: per node,
	// coalesced charge spans plus discrete runtime events, exportable as
	// Chrome trace_event JSON via WriteChromeTrace.
	Tracer = obs.Tracer
	// MetricsRegistry holds named counters and gauges, exportable as
	// Prometheus text and JSON; see RunStats.Metrics.
	MetricsRegistry = obs.Registry
)

// NewTracer creates a tracer for the given node count; eventCap bounds the
// per-node event ring (<= 0 selects the default). Attach it as the
// MachineConfig's Obs; one tracer may span several consecutive phases.
func NewTracer(nodes, eventCap int) *Tracer { return obs.NewTracer(nodes, eventCap) }

// ErrUnreachable is the sentinel error wrapped by a run's Err when a node
// exhausted its retransmission budget to a peer; test with errors.Is.
var ErrUnreachable = fm.ErrUnreachable

// ErrCrashed is the sentinel error wrapped by every *CrashError; test with
// errors.Is. A run whose Err wraps it completed with partial results: the
// crashed nodes' contributions are missing and the survivors' barriers
// routed around them.
var ErrCrashed = machine.ErrCrashed

// CrashError reports one node's permanent crash (scheduled by the fault
// plan's CrashRate/CrashAt) on the run's error chain.
type CrashError = machine.CrashError

// Checkpoint and snapshot types.
type (
	// Snapshot is a captured run state at a virtual-time boundary:
	// versioned metadata plus named binary sections covering engine,
	// machine, messaging, and runtime state.
	Snapshot = sim.Snapshot
	// SnapshotMeta identifies when in a run a snapshot was captured.
	SnapshotMeta = sim.SnapshotMeta
	// CheckpointSpec arms a checkpoint (or, when Verify is set, a restore
	// verification) across the phases of a run: set it as the
	// MachineConfig's Checkpoint for every phase, and the capture fires in
	// whichever phase the cumulative boundary time At falls.
	CheckpointSpec = machine.CheckpointSpec
)

// ErrBadSnapshot is the sentinel matched by errors.Is when snapshot bytes
// fail to decode (truncation, corruption, version mismatch).
var ErrBadSnapshot = sim.ErrBadSnapshot

// ErrSnapshotDiverged is the sentinel matched by errors.Is when a restored
// run's re-captured state does not match the snapshot it was restored from.
var ErrSnapshotDiverged = sim.ErrSnapshotDiverged

// RestoreSnapshot decodes snapshot bytes produced by Snapshot.Encode,
// verifying magic, version, structure, and checksum. Corrupt input returns
// an error wrapping ErrBadSnapshot; it never panics and never returns a
// partially decoded snapshot.
func RestoreSnapshot(data []byte) (*Snapshot, error) { return sim.Restore(data) }

// Nil is the null global pointer.
var Nil = gptr.Nil

// NewSpace creates a global object space for n nodes.
func NewSpace(n int) *Space { return gptr.NewSpace(n) }

// DefaultT3D returns a CRAY T3D-like machine configuration for the given
// node count (150 MHz nodes, FM-style messaging costs, 3D torus).
func DefaultT3D(nodes int) MachineConfig { return machine.DefaultT3D(nodes) }

// SpecOption customizes the DPA configuration of a Spec built by DPASpec;
// every other knob is a field of the Spec's runtime config, set directly.
type SpecOption = driver.SpecOption

// WithAggLimit sets the DPA aggregation limit (1 disables, 0 unlimited).
func WithAggLimit(n int) SpecOption { return driver.WithAggLimit(n) }

// WithPipeline enables or disables DPA message pipelining.
func WithPipeline(on bool) SpecOption { return driver.WithPipeline(on) }

// WithShape selects DPA's planned mode, the one alternative to the paper's
// static strip: a closed-form cost model sizes each strip and the
// per-destination aggregation limits before the strip runs, renamed copies
// are pinned for exactly their reuse region (refetches are structurally zero
// under the memory budget), and repeated phases of a multi-phase run are
// planned from the previous phase's measured signals, with top-level
// iterations reordered into owner-major runs (affinity-shaped tiles). The
// cross-phase half takes effect when the runner supplies a PriorStore via
// WithPriors. Mutually exclusive with the LIFO queue discipline
// (DPAConfig.LIFO).
func WithShape() SpecOption { return driver.WithShape() }

// PriorStore carries the planner's cross-phase reuse priors across the phase
// boundaries of one multi-phase run; see NewPriorStore and WithPriors.
type PriorStore = driver.PriorStore

// NewPriorStore returns an empty cross-phase prior store. One store should
// span exactly one multi-phase run.
func NewPriorStore() *PriorStore { return driver.NewPriorStore() }

// WithPriors hands the phase a cross-phase prior store keyed by the given
// phase kind. The priors are a no-op unless the spec is DPA in planned mode,
// so runners can pass their store unconditionally.
func WithPriors(store *PriorStore, kind string) RunOption {
	return driver.WithPriors(store, kind)
}

// DPASpec selects the DPA runtime with the given strip size and the default
// communication optimizations (aggregation + pipelining) enabled, then
// applies opts. The paper's headline configuration is DPASpec(50).
func DPASpec(strip int, opts ...SpecOption) Spec { return driver.DPASpec(strip, opts...) }

// DPADefault returns the default DPA runtime configuration for further
// customization; wrap it in a Spec via SpecFromDPA.
func DPADefault() DPAConfig { return core.Default() }

// SpecFromDPA wraps a custom DPA configuration in a Spec.
func SpecFromDPA(cfg DPAConfig) Spec { return Spec{Kind: driver.DPA, Core: cfg} }

// CachingSpec selects the software-caching comparator runtime.
func CachingSpec() Spec { return driver.CachingSpec() }

// BlockingSpec selects the blocking comparator runtime.
func BlockingSpec() Spec { return driver.BlockingSpec() }

// RunOption adjusts how RunPhase executes a phase beyond what the
// MachineConfig describes: WithValidation and WithPriors.
type RunOption = driver.RunOption

// WithValidation runs the phase under the other engine too and panics if the
// two runs' statistics diverge or either run allocated in the Space, which
// must be read-only while a phase runs. The body is executed twice.
func WithValidation() RunOption { return driver.WithValidation() }

// DefaultFaults returns a FaultConfig injecting message loss at the given
// rate under the given seed, with the reliability protocol enabled. Set it
// as the MachineConfig's Faults; the fault schedule depends only on the seed
// and each node's program order, so it is identical under both engines.
func DefaultFaults(seed uint64, dropRate float64) FaultConfig {
	return machine.DefaultFaults(seed, dropRate)
}

// RunPhase executes one SPMD phase: body runs on every simulated node with
// its runtime instance; a barrier closes the phase. It returns per-node
// cost breakdowns and merged runtime counters. mcfg chooses the engine,
// tracing, faults and checkpoint; options cross-validate the two engines or
// carry cross-phase priors.
func RunPhase(mcfg MachineConfig, space *Space, spec Spec,
	body func(rt Runtime, ep *Endpoint, nd *Node), opts ...RunOption) RunStats {
	return driver.RunPhase(mcfg, space, spec, body, opts...)
}
