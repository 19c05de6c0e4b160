package fm

import (
	"sort"

	"dpa/internal/sim"
)

// SnapshotFingerprint folds the frame's identity — sequence number, handler,
// modeled size, and payload fingerprint — so two endpoints with the same
// logical retransmission queues compare equal without serializing payloads.
func (fr *relFrame) SnapshotFingerprint() uint64 {
	h := sim.MixFP(0x66726d65, fr.Seq) // "frme"
	h = sim.MixFP(h, uint64(fr.Handler))
	h = sim.MixFP(h, uint64(fr.Bytes))
	return sim.MixFP(h, sim.FingerprintPayload(fr.Payload))
}

func encodeFaultStats(w *sim.SnapWriter, fs *FaultStats) {
	w.I64(fs.Dropped)
	w.I64(fs.Duplicated)
	w.I64(fs.Jittered)
	w.I64(fs.Stalls)
	w.I64(fs.Crashes)
	w.I64(fs.Retransmits)
	w.I64(fs.Exhausted)
	w.I64(fs.AcksSent)
	w.I64(fs.DupsSuppressed)
	w.I64(fs.UnknownHandler)
	w.I64(fs.Probes)
}

// EncodeSnapshot writes the endpoint's complete messaging state: barrier
// ordinals (including each tree child's and, in key order, each adopted
// sender's), fault counters, recorded degradation errors (as string
// fingerprints — errors are values, their text is their identity), and the
// full reliability-protocol state — per-destination send windows with every
// in-flight frame's retry schedule, backlogs, and per-source
// duplicate-suppression sets. Map-backed state is emitted in sorted key
// order so the encoding is canonical.
func (ep *EP) EncodeSnapshot(w *sim.SnapWriter) {
	w.Int(ep.Node.ID())
	w.Int(ep.barrierAt)
	w.Int(ep.releasedAt)
	for _, v := range ep.kidAt {
		w.Int(v)
	}
	from := make([]int, 0, len(ep.adoptedAt))
	for f := range ep.adoptedAt {
		from = append(from, f)
	}
	sort.Ints(from)
	w.Int(len(from))
	for _, f := range from {
		w.Int(f)
		w.Int(ep.adoptedAt[f])
	}
	w.Bool(ep.crashes)
	encodeFaultStats(w, &ep.fs)
	w.Int(len(ep.errs))
	for _, err := range ep.errs {
		w.U64(sim.StringFP(err.Error()))
	}
	w.Int(ep.errsDropped)
	if ep.rel == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	r := ep.rel
	w.Int(r.live)
	w.Int(r.deadCount)
	w.Int(len(r.dest))
	for i := range r.dest {
		d := &r.dest[i]
		w.U64(d.nextSeq)
		w.Bool(d.dead)
		w.Int(len(d.inflight))
		for _, pd := range d.inflight {
			w.U64(pd.frame.Seq)
			w.Int(pd.wire)
			w.Int(pd.attempts)
			w.Time(pd.rto)
			w.Time(pd.deadline)
			w.U64(pd.frame.SnapshotFingerprint())
		}
		w.Int(len(d.backlog))
		for _, pd := range d.backlog {
			w.U64(pd.frame.Seq)
			w.U64(pd.frame.SnapshotFingerprint())
		}
	}
	for i := range r.src {
		s := &r.src[i]
		w.U64(s.below)
		keys := make([]uint64, 0, len(s.seen))
		for k := range s.seen {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		w.Int(len(keys))
		for _, k := range keys {
			w.U64(k)
		}
	}
}
