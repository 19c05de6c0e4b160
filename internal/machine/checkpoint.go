package machine

import (
	"errors"
	"fmt"

	"dpa/internal/sim"
)

// ErrBadCheckpoint is the sentinel matched by errors.Is for a CheckpointSpec
// that Config.Validate rejects.
var ErrBadCheckpoint = errors.New("machine: invalid checkpoint")

// CheckpointSpec describes one virtual-time checkpoint across a (possibly
// multi-phase) run. The driver arms it on each phase's machine until the
// boundary fires; the capture itself — which sections go into the snapshot —
// is the driver's closure, since the subsystems being captured (fm
// endpoints, runtimes) live above this package.
//
// In capture mode (Verify == nil), Deliver receives the snapshot taken at
// virtual time At. In verify mode (Verify != nil), the run is re-executed
// deterministically, re-captured at the snapshot's own boundary, and
// compared: Deliver receives the re-capture plus a *sim.SnapshotDivergedError
// when the states differ (nil error means the restore is proven
// bit-identical, and the continued run therefore matches the original by
// induction on determinism).
type CheckpointSpec struct {
	// At is the cumulative virtual time of the checkpoint boundary,
	// measured across phases run back to back. It must be positive in
	// capture mode; verify mode ignores it and takes the boundary from
	// Verify's metadata.
	At sim.Time
	// Verify, when non-nil, switches the spec to restore-verification
	// against this snapshot.
	Verify *sim.Snapshot
	// Deliver is called exactly once, at the boundary, with the captured
	// (or re-captured) snapshot. It runs inside the engine's checkpoint
	// hook: it must not call back into the engine or touch node state.
	Deliver func(*sim.Snapshot, error)

	// Cross-phase cursor, advanced by the driver.
	offset sim.Time // cumulative virtual time of completed phases
	phase  int32    // zero-based index of the coming phase
	done   bool     // the boundary fired
}

// validate rejects a capture-mode spec without a positive capture time; a
// nil spec is valid.
func (cs *CheckpointSpec) validate() error {
	if cs != nil && cs.Verify == nil && cs.At <= 0 {
		return fmt.Errorf("%w: capture time At = %d, must be positive", ErrBadCheckpoint, cs.At)
	}
	return nil
}

// boundary is the cumulative virtual time the capture targets.
func (cs *CheckpointSpec) boundary() sim.Time {
	if cs.Verify != nil {
		return cs.Verify.Meta.RequestedAt
	}
	return cs.At
}

// Target returns the boundary's offset within the coming phase and whether
// the spec still wants to fire. A boundary landing exactly on a phase seam
// snaps to the first event boundary of the next phase (offset 1); capture
// and verify replay share the rule, so the comparison stays aligned.
func (cs *CheckpointSpec) Target() (sim.Time, bool) {
	if cs == nil || cs.done {
		return 0, false
	}
	rem := cs.boundary() - cs.offset
	if rem < 1 {
		rem = 1
	}
	return rem, true
}

// Meta returns the metadata block for a capture at this spec's boundary.
func (cs *CheckpointSpec) Meta(nodes int) sim.SnapshotMeta {
	at := cs.boundary()
	return sim.SnapshotMeta{RequestedAt: at, Boundary: at, Phase: cs.phase, Nodes: int32(nodes)}
}

// MarkDone records that the boundary fired.
func (cs *CheckpointSpec) MarkDone() { cs.done = true }

// Done reports whether the boundary has fired.
func (cs *CheckpointSpec) Done() bool { return cs != nil && cs.done }

// Advance records a completed phase of the given makespan, moving the
// cursor so the next phase's Target is measured from its own start.
func (cs *CheckpointSpec) Advance(makespan sim.Time) {
	if cs == nil {
		return
	}
	cs.offset += makespan
	cs.phase++
}

// CheckpointAt arms the engine's one-shot checkpoint hook (see
// sim.Engine.CheckpointAt). Must be called before Run.
func (m *Machine) CheckpointAt(at sim.Time, fn func()) { m.eng.CheckpointAt(at, fn) }

// SnapshotProcs writes the engine-level process records — scheduling state,
// clocks, charges, pending mailboxes — into a snapshot section (see
// sim.EncodeProcs). Must only be called from inside a checkpoint hook or
// after Run returned.
func (m *Machine) SnapshotProcs(w *sim.SnapWriter) { sim.EncodeProcs(w, m.eng.Procs()) }

// EncodeSnapshot writes the node's machine-level state: traffic and cache
// accounting, fault-draw cursors, crash state, and a digest of the data
// cache's tags in line order, 0 before the phase's first touch (which
// objects the lines hold decides future hit/miss charges).
func (n *Node) EncodeSnapshot(w *sim.SnapWriter) {
	w.Int(n.id)
	w.I64(n.MsgsSent)
	w.I64(n.BytesSent)
	w.I64(n.MsgsRecv)
	w.I64(n.BytesRecv)
	w.I64(n.CacheHits)
	w.I64(n.CacheMisses)
	w.I64(n.FaultDrops)
	w.I64(n.FaultDups)
	w.I64(n.FaultJitter)
	w.I64(n.FaultStalls)
	w.U64(n.faultSeq)
	w.U64(n.stallSeq)
	w.Time(n.crashAt)
	w.Bool(n.Crashed)
	w.Time(n.CrashedAt)
	var h uint64
	if !n.cache.stale {
		for _, tag := range n.cache.tags {
			h = sim.MixFP(h, tag)
		}
	}
	w.U64(h)
}
