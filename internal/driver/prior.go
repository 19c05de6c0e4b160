package driver

import (
	"dpa/internal/core"
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
// is not state at all: one core.Arena of runtime storage per node (see
// runtimeArenas). Arenas are never encoded, cloned or compared.
type PriorStore struct {
	kinds map[string][]*core.PriorTable
	order []string // insertion order, for deterministic encoding

	arenas    []core.Arena
	arenaSpec Spec // the spec arenas was built for
}

// NewPriorStore returns an empty store. One store should span exactly one
// multi-phase run; a fresh run starts from a fresh (cold) store.
func NewPriorStore() *PriorStore {
	return &PriorStore{kinds: make(map[string][]*core.PriorTable)}
}

// tables returns the per-node table slice for a phase kind, creating cold
// tables on first use and whenever the node count differs from the one the
// kind's tables were built for (as runtimeArenas does). Creation happens on
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

// runtimeArenas returns the per-node runtime arenas for a DPA phase under
// spec, building empty ones on first use and whenever the node count or the
// spec differs from what the held arenas were built for. Like tables it runs
// on the host before the machine starts, and node i's body touches only
// arenas[i], so the parallel engine's workers never share one.
func (ps *PriorStore) runtimeArenas(spec Spec, nodes int) []core.Arena {
	if len(ps.arenas) != nodes || ps.arenaSpec != spec {
		ps.arenas = make([]core.Arena, nodes)
		ps.arenaSpec = spec
	}
	return ps.arenas
}

// dropArenas discards the held arenas; the next phase builds fresh ones.
func (ps *PriorStore) dropArenas() { ps.arenas = nil }

// Clone deep-copies the store's priors; the copy holds no arenas. RunPhase
// uses it to give the WithValidation check run the same pre-phase priors as
// the primary run without the two runs double-folding into one table — and,
// since the check run therefore builds fresh runtimes, every validated phase
// also compares a recycled runtime against a fresh one.
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
// EM3D iteration — get their own). A no-op unless the spec is DPA with
// Prior enabled, so runners can pass their store unconditionally.
func WithPriors(store *PriorStore, kind string) RunOption {
	return func(rc *runConfig) { rc.prior = store; rc.priorKind = kind }
}
