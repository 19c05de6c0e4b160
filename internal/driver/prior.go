package driver

import (
	"dpa/internal/core"
	"dpa/internal/fm"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// PriorStore carries the planner's cross-phase reuse priors (core.PriorTable)
// across phase boundaries: one table per (phase kind, node). The store lives
// in the application runner — one store per multi-phase run — and is handed
// to each RunPhase via WithPriors; the driver attaches each node's table
// before the phase body runs and folds the phase's reuse summary back at the
// seam, in node-index order, so the store's contents are a pure function of
// simulated history. A store is intentionally NOT part of a Spec: specs are
// reusable values, and a mutable store inside one would let a second run of
// the same spec warm-start from the first, breaking the bit-identical
// repeat contract the equivalence suites assert.
//
// The store also carries what is recycled between the phases of the run that
// is not state at all: the simulated machine with its endpoints (see
// phaseMachine) and each node's runtime from the previous phase, whose
// storage the next phase under the same spec builds on (see runtimes). This
// run-scoped storage is never encoded, cloned or compared, and a phase that
// does not end cleanly drops all of it (dropRunStorage).
//
// The machine's node processes live as long as the machine, so the runner
// that creates a store must Close it when its run ends.
type PriorStore struct {
	kinds map[string][]*core.PriorTable
	order []string // insertion order, for deterministic encoding

	mach   *phaseMachine
	rts    []Runtime
	rtSpec Spec // the spec rts ran under
}

// phaseMachine is the simulated machine the phases of one run share: one
// machine.Machine, run once per phase, with the protocol table its
// endpoints dispatch through and each node's endpoint, reset at the start
// of every phase after the first.
type phaseMachine struct {
	cfg    machine.Config // as the phase asked for it, before Validate fills it in
	m      *machine.Machine
	protos *Protos
	eps    []*fm.EP
}

func newPhaseMachine(cfg machine.Config) *phaseMachine {
	return &phaseMachine{cfg: cfg, m: machine.New(cfg), protos: NewProtos(), eps: make([]*fm.EP, cfg.Nodes)}
}

// endpoint returns node nd's endpoint for the phase: the previous phase's,
// reset, or a new one on the node's first phase. Called from nd's own
// program, so the parallel engine's workers touch distinct slots.
func (pm *phaseMachine) endpoint(nd *machine.Node) *fm.EP {
	if ep := pm.eps[nd.ID()]; ep != nil {
		ep.Reset()
		return ep
	}
	ep := fm.NewEP(pm.protos.Net, nd)
	pm.eps[nd.ID()] = ep
	return ep
}

// machine returns the machine for a phase under cfg: the store's, when the
// previous phase ran on exactly the same config, a new one otherwise —
// another node count, engine, tuning, fault plan, tracer or checkpoint
// builds its own. A nil store (a phase outside any multi-phase run) always
// gets a new machine, which its caller closes after the phase.
func (ps *PriorStore) machine(cfg machine.Config) *phaseMachine {
	if ps == nil {
		return newPhaseMachine(cfg)
	}
	if ps.mach == nil || ps.mach.cfg != cfg {
		ps.closeMachine()
		ps.mach = newPhaseMachine(cfg)
	}
	return ps.mach
}

// closeMachine closes the store's machine, if it holds one.
func (ps *PriorStore) closeMachine() {
	if ps.mach != nil {
		ps.mach.m.Close()
	}
}

// NewPriorStore returns an empty store. One store should span exactly one
// multi-phase run, and its creator should Close it when that run ends; a
// fresh run starts from a fresh (cold) store.
func NewPriorStore() *PriorStore {
	return &PriorStore{kinds: make(map[string][]*core.PriorTable)}
}

// tables returns the per-node table slice for a phase kind, creating cold
// tables on first use and whenever the node count differs from the one the
// kind's tables were built for. Creation happens on
// the host before the machine runs, so concurrent node bodies only ever read
// the returned slice.
func (ps *PriorStore) tables(kind string, nodes int) []*core.PriorTable {
	ts, ok := ps.kinds[kind]
	if len(ts) != nodes {
		ts = make([]*core.PriorTable, nodes)
		for i := range ts {
			ts[i] = &core.PriorTable{}
		}
		ps.kinds[kind] = ts
		if !ok {
			ps.order = append(ps.order, kind)
		}
	}
	return ts
}

// runtimes returns each node's runtime from the previous phase for a phase
// under spec on nodes nodes: the store's, when that phase ran under the same
// spec and node count — on whatever machine — and nils otherwise. A nil
// store always gets nils. Node i's body reads only slot i, so the parallel
// engine's workers never share one.
func (ps *PriorStore) runtimes(spec Spec, nodes int) []Runtime {
	if ps == nil || len(ps.rts) != nodes || ps.rtSpec != spec {
		return make([]Runtime, nodes)
	}
	return ps.rts
}

// dropRunStorage closes and discards the machine and discards the runtimes;
// the next phase builds fresh ones. A phase that deadlocked leaves
// coroutines parked on its machine's processes, and one that degraded or
// panicked can leave buffers referenced from wherever it stopped, so neither
// may hand its storage on. The priors stay: they are simulated history,
// folded only at a seam.
func (ps *PriorStore) dropRunStorage() {
	ps.closeMachine()
	ps.mach, ps.rts = nil, nil
}

// Close ends the store's run: it closes the machine, whose node processes
// would otherwise stay parked, and drops the run storage. The priors stay
// readable, and a later phase on the store builds a fresh machine. A nil
// store is a no-op.
func (ps *PriorStore) Close() {
	if ps != nil {
		ps.dropRunStorage()
	}
}

// Clone deep-copies the store's priors; the copy holds no machine and no
// runtimes. RunPhase uses it to give the WithValidation check run the same
// pre-phase priors as the primary run without the two runs double-folding
// into one table — and, since the check run therefore builds a fresh
// machine and fresh runtimes, every validated phase also compares recycled
// storage against fresh storage.
func (ps *PriorStore) Clone() *PriorStore {
	if ps == nil {
		return nil
	}
	c := NewPriorStore()
	for _, kind := range ps.order {
		src := ps.kinds[kind]
		dst := make([]*core.PriorTable, len(src))
		for i, t := range src {
			dst[i] = t.Clone()
		}
		c.kinds[kind] = dst
		c.order = append(c.order, kind)
	}
	return c
}

// EncodeSnapshot writes the store for the snapshot's "priors" section:
// kinds in insertion order (the order phases first ran, itself
// deterministic), each with its per-node tables.
func (ps *PriorStore) EncodeSnapshot(w *sim.SnapWriter) {
	w.Int(len(ps.order))
	for _, kind := range ps.order {
		w.Str(kind)
		ts := ps.kinds[kind]
		w.Int(len(ts))
		for _, t := range ts {
			t.EncodeSnapshot(w)
		}
	}
}

// WithPriors hands the phase a cross-phase prior store and names the phase
// kind the store should key this phase's tables under (repeated phases of
// the same kind share tables; distinct kinds — e.g. the E and H halves of an
// EM3D iteration — get their own). The priors are a no-op unless the spec is
// DPA in planned mode, so runners can pass their store unconditionally.
func WithPriors(store *PriorStore, kind string) RunOption {
	return func(rc *runConfig) { rc.prior = store; rc.priorKind = kind }
}
