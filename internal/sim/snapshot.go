package sim

// Virtual-time snapshots (DESIGN.md §12).
//
// A Snapshot is a versioned, self-describing container for the complete
// deterministic state of a run at a checkpoint boundary: named binary
// sections (process records, mailbox contents, reliability windows, M/D
// tables, controller state, ...) under a fixed header, closed by a CRC-64
// of everything before it. Layers above sim contribute sections through
// SnapWriter; the container neither interprets nor orders them beyond the
// order they were added in, which capture code keeps deterministic.
//
// Because every simulated decision is a pure function of virtual-time
// state, two captures of the same run at the same boundary — across
// engines, repeats, and host machines — produce byte-identical encodings.
// Restore is therefore replay-verify: re-execute the run deterministically
// and check the re-captured state against the snapshot (see
// machine.CheckpointSpec); a mismatch is a *SnapshotDivergedError.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"slices"
)

// snapshotMagic opens every encoded snapshot.
const snapshotMagic = "DPASNAP1"

// SnapshotVersion is the current snapshot format version. Any change to the
// bytes of an encoded section — a field added, removed, reordered or
// canonicalised differently, in any layer — bumps it; files of another
// version are rejected by Restore, never reinterpreted. Version 2: the "rt"
// section lost its copy-store counters and trailer, and "procs" writes a
// process parked in its own past as ready at its clock (EncodeProcs).
// Version 3: the "fm" section gained the combining tree's per-child reduce
// slots, and its barrier counters now hold tree-child arrivals. Version 4:
// the "rt" section lost the enqueue-gap EWMA words and writes one planned
// mode bool where it wrote the adaptive, planner, prior and shape bools.
// Version 5: the "fm" section lost the all-reduce and crash-hub state and
// writes barrier ordinals: left, released, one per tree child, and the
// adopted senders' in key order. Version 6: a DPA fetch request and its
// reply are one record, fingerprinted as the request in both directions, so
// a pending reply and a retained frame whose record has since come home
// digest differently. Version 7: the "rt" section lost the strip's
// request-message base and the planner's reuse-gap retention window and
// ceiling, and the prior table (its "priors" words and its fingerprint) lost
// its reuse gap. Version 7 files from builds that gave the caching and the
// blocking runtime each a request and a reply payload type, rather than one
// shared type, fingerprint an in-flight comparator fetch differently: such a
// file fails -restore as a divergence, not as a version mismatch. Version 8:
// the "rt" section lost each M/D entry's last-use strip stamp, the
// owner-major ready queue's length and digest, and the region-release
// counter. Version 9: the "machine" section digests each node's
// direct-mapped cache tags where it digested an LRU's recency order.
const SnapshotVersion uint32 = 9

// ErrBadSnapshot is the sentinel matched by errors.Is for snapshot
// encodings that fail to decode: truncated, corrupted (checksum mismatch),
// or of an unsupported version. Restore never half-decodes: it returns
// either a fully parsed snapshot or a *BadSnapshotError.
var ErrBadSnapshot = errors.New("sim: bad snapshot")

// BadSnapshotError reports why a snapshot encoding was rejected.
type BadSnapshotError struct {
	Reason string
}

func (e *BadSnapshotError) Error() string { return "sim: bad snapshot: " + e.Reason }

// Unwrap makes errors.Is(err, ErrBadSnapshot) true.
func (e *BadSnapshotError) Unwrap() error { return ErrBadSnapshot }

// ErrSnapshotDiverged is the sentinel matched by errors.Is when a restored
// run's re-captured state does not match the snapshot it was restored from.
var ErrSnapshotDiverged = errors.New("sim: restored run diverged from snapshot")

// SnapshotDivergedError carries the first mismatch found between a snapshot
// and the re-captured state of the run restored from it.
type SnapshotDivergedError struct {
	Detail string
}

func (e *SnapshotDivergedError) Error() string {
	return "sim: restored run diverged from snapshot: " + e.Detail
}

// Unwrap makes errors.Is(err, ErrSnapshotDiverged) true.
func (e *SnapshotDivergedError) Unwrap() error { return ErrSnapshotDiverged }

// SnapshotMeta identifies when in a run a snapshot was captured.
type SnapshotMeta struct {
	// RequestedAt is the cumulative virtual time the checkpoint was
	// requested for (CheckpointSpec.At).
	RequestedAt Time
	// Boundary is the cumulative virtual time of the boundary the capture
	// actually ran at (== RequestedAt; kept separately so the format can
	// express boundary snapping if capture semantics ever widen).
	Boundary Time
	// Phase is the zero-based phase index the boundary fell in.
	Phase int32
	// Nodes is the simulated node count.
	Nodes int32
}

// SnapshotSection is one named binary state record.
type SnapshotSection struct {
	Name string
	Data []byte
}

// Snapshot is a captured run state: metadata plus named sections.
type Snapshot struct {
	Version  uint32
	Meta     SnapshotMeta
	Sections []SnapshotSection
}

// Add appends a named section built by fn.
func (s *Snapshot) Add(name string, fn func(w *SnapWriter)) {
	var w SnapWriter
	fn(&w)
	s.Sections = append(s.Sections, SnapshotSection{Name: name, Data: w.buf})
}

// Section returns the named section's data and whether it exists.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	for i := range s.Sections {
		if s.Sections[i].Name == name {
			return s.Sections[i].Data, true
		}
	}
	return nil, false
}

// crcSnapshot is the checksum polynomial closing every encoding.
var crcSnapshot = crc64.MakeTable(crc64.ECMA)

// Encode serializes the snapshot: magic, version, metadata, sections, and a
// trailing CRC-64 of everything before it. Encoding the same captured state
// always yields the same bytes.
func (s *Snapshot) Encode() []byte {
	var w SnapWriter
	w.buf = append(w.buf, snapshotMagic...)
	w.U32(s.Version)
	w.U64(uint64(s.Meta.RequestedAt))
	w.U64(uint64(s.Meta.Boundary))
	w.U32(uint32(s.Meta.Phase))
	w.U32(uint32(s.Meta.Nodes))
	w.U32(uint32(len(s.Sections)))
	for i := range s.Sections {
		sec := &s.Sections[i]
		w.U32(uint32(len(sec.Name)))
		w.buf = append(w.buf, sec.Name...)
		w.U32(uint32(len(sec.Data)))
		w.buf = append(w.buf, sec.Data...)
	}
	w.U64(crc64.Checksum(w.buf, crcSnapshot))
	return w.buf
}

// Restore decodes an encoded snapshot. Any defect — truncation, a flipped
// bit (checksum mismatch), an unsupported version, or inconsistent section
// framing — returns a *BadSnapshotError (errors.Is ErrBadSnapshot); Restore
// never panics on hostile input and never returns a partial snapshot.
func Restore(data []byte) (*Snapshot, error) {
	bad := func(format string, args ...any) (*Snapshot, error) {
		return nil, &BadSnapshotError{Reason: fmt.Sprintf(format, args...)}
	}
	// Fixed frame: magic + version + meta + section count + trailing CRC.
	const minLen = len(snapshotMagic) + 4 + 24 + 4 + 8
	if len(data) < minLen {
		return bad("truncated: %d bytes, need at least %d", len(data), minLen)
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return bad("bad magic %q", data[:len(snapshotMagic)])
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if got, want := binary.LittleEndian.Uint64(tail), crc64.Checksum(body, crcSnapshot); got != want {
		return bad("checksum mismatch: trailer %#x, computed %#x", got, want)
	}
	r := snapReader{buf: body, off: len(snapshotMagic)}
	s := &Snapshot{Version: r.u32()}
	if s.Version != SnapshotVersion {
		return bad("unsupported version %d (this build reads version %d)", s.Version, SnapshotVersion)
	}
	s.Meta.RequestedAt = Time(r.u64())
	s.Meta.Boundary = Time(r.u64())
	s.Meta.Phase = int32(r.u32())
	s.Meta.Nodes = int32(r.u32())
	nsec := int(r.u32())
	for i := 0; i < nsec; i++ {
		name := r.bytes(int(r.u32()))
		data := r.bytes(int(r.u32()))
		if r.failed {
			break
		}
		s.Sections = append(s.Sections, SnapshotSection{
			Name: string(name),
			Data: append([]byte(nil), data...),
		})
	}
	if r.failed {
		return bad("truncated section table")
	}
	if r.off != len(body) {
		return bad("%d trailing bytes after section table", len(body)-r.off)
	}
	return s, nil
}

// Diff returns a description of the first difference between two snapshots,
// or "" when they are identical. It names the diverging section and byte
// offset, so restore-verification failures point at the subsystem whose
// replay went wrong.
func (s *Snapshot) Diff(o *Snapshot) string {
	if s.Version != o.Version {
		return fmt.Sprintf("version: %d vs %d", s.Version, o.Version)
	}
	if s.Meta != o.Meta {
		return fmt.Sprintf("meta: %+v vs %+v", s.Meta, o.Meta)
	}
	if len(s.Sections) != len(o.Sections) {
		return fmt.Sprintf("section count: %d vs %d", len(s.Sections), len(o.Sections))
	}
	for i := range s.Sections {
		a, b := &s.Sections[i], &o.Sections[i]
		if a.Name != b.Name {
			return fmt.Sprintf("section %d: name %q vs %q", i, a.Name, b.Name)
		}
		if len(a.Data) != len(b.Data) {
			return fmt.Sprintf("section %q: length %d vs %d", a.Name, len(a.Data), len(b.Data))
		}
		for j := range a.Data {
			if a.Data[j] != b.Data[j] {
				return fmt.Sprintf("section %q: byte %d: %#x vs %#x", a.Name, j, a.Data[j], b.Data[j])
			}
		}
	}
	return ""
}

// snapReader is the bounds-checked cursor behind Restore. A read past the
// end sets failed and returns zeros, so decode loops terminate cleanly
// instead of panicking on truncated input.
type snapReader struct {
	buf    []byte
	off    int
	failed bool
}

func (r *snapReader) u32() uint32 {
	if r.failed || r.off+4 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.failed || r.off+8 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) bytes(n int) []byte {
	if r.failed || n < 0 || r.off+n > len(r.buf) {
		r.failed = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// SnapWriter builds a section's binary data. All integers are fixed-width
// little-endian, so encodings carry no host byte-order or word-size
// dependence.
type SnapWriter struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *SnapWriter) Bytes() []byte { return w.buf }

// U8 writes one byte.
func (w *SnapWriter) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte.
func (w *SnapWriter) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// U32 writes a fixed-width 32-bit integer.
func (w *SnapWriter) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a fixed-width 64-bit integer.
func (w *SnapWriter) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes a fixed-width signed 64-bit integer.
func (w *SnapWriter) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a fixed 64-bit record.
func (w *SnapWriter) Int(v int) { w.I64(int64(v)) }

// Time writes a virtual-time value.
func (w *SnapWriter) Time(t Time) { w.I64(int64(t)) }

// F64 writes a float64 by bit pattern.
func (w *SnapWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (w *SnapWriter) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Fingerprinter lets a message payload contribute a deterministic 64-bit
// digest to process snapshots. Payload types that cross node boundaries
// (the fm layer's frames, the runtimes' fetch requests and replies) should
// implement it; types that do not are digested by their type name alone,
// which is deterministic but blind to their contents.
type Fingerprinter interface {
	SnapshotFingerprint() uint64
}

// MixFP folds v into the running fingerprint h. The mixer is the same
// splitmix64 finalizer the fault plan uses, so a one-bit change anywhere in
// a payload avalanches through the digest.
func MixFP(h, v uint64) uint64 { return fmix64(h ^ fmix64(v)) }

// StringFP fingerprints a string (FNV-1a folded through the mixer).
func StringFP(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return fmix64(h)
}

// FingerprintPayload digests an arbitrary message payload: nil and the
// scalar types directly, Fingerprinter implementations via their own
// method, everything else by type name. Never by formatting the value —
// %v on a payload holding host pointers would leak host addresses into
// the digest and break cross-run determinism.
func FingerprintPayload(v any) uint64 {
	switch x := v.(type) {
	case nil:
		return fmix64(0x736e61702d6e696c) // "snap-nil"
	case Fingerprinter:
		return x.SnapshotFingerprint()
	case int:
		return MixFP(1, uint64(int64(x)))
	case int64:
		return MixFP(2, uint64(x))
	case uint64:
		return MixFP(3, x)
	case float64:
		return MixFP(4, math.Float64bits(x))
	case bool:
		h := uint64(0)
		if x {
			h = 1
		}
		return MixFP(5, h)
	default:
		return StringFP(fmt.Sprintf("%T", v))
	}
}

// snapshotPending returns the mailbox's pending messages in delivery order
// without consuming them: the sorted ring window merged with the overflow
// heap's contents.
func (mb *mailbox) snapshotPending() []Message {
	out := make([]Message, 0, mb.size())
	out = append(out, mb.ring[mb.head:]...)
	out = append(out, mb.ovf...)
	slices.SortFunc(out, func(a, b Message) int {
		if msgLess(&a, &b) {
			return -1
		}
		if msgLess(&b, &a) {
			return 1
		}
		return 0
	})
	return out
}

// EncodeProcs writes the deterministic per-process state record: identity,
// scheduling state, clock, per-category charges, and the pending mailbox
// contents in delivery order (envelope fields plus a payload fingerprint).
// Engine-private scheduling fields (horizon, shard, heap position) are
// deliberately excluded — they differ between worker counts while the
// simulated state does not. Must only be called at a checkpoint
// boundary (every process parked) or after Run returned.
func EncodeProcs(w *SnapWriter, procs []*Proc) {
	w.Int(len(procs))
	for _, p := range procs {
		w.Int(p.id)
		state, wake := p.state, p.wake
		switch {
		case state == stateDone:
			// A completed process never wakes again: its wake field is
			// whatever the engine last wrote before the body returned (the
			// engines update it at different points on the exit path, e.g.
			// when a crash unwinds), so encode the canonical "never" instead
			// of the residue.
			wake = Forever
		case state == stateBlocked && wake <= p.clock:
			// A process that charged past a message's arrival and then
			// waited parks blocked if the message was posted after it
			// entered the wait, ready at its clock if before — an accident
			// of which process the engine ran first (under the parallel
			// engine, of host timing). Either way it next runs at its
			// clock: encode the ready process it is.
			state, wake = stateReady, p.clock
		}
		w.U8(uint8(state))
		w.Time(p.clock)
		w.Time(wake)
		w.U64(p.sendSeq)
		w.U8(uint8(p.idleCat))
		for c := Category(0); c < NumCategories; c++ {
			w.Time(p.charges[c])
		}
		msgs := p.mailbox.snapshotPending()
		w.Int(len(msgs))
		for i := range msgs {
			m := &msgs[i]
			w.Time(m.Arrival)
			w.Int(m.From)
			w.U64(m.seq)
			w.Int(m.Handler)
			w.Int(m.Bytes)
			w.U64(FingerprintPayload(m.Payload))
		}
	}
}
