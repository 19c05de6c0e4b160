package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"strings"
	"testing"
)

// fuzzSeedSnapshot builds a representative encoded snapshot: metadata plus a
// few sections of varied content, like the driver's capture produces.
func fuzzSeedSnapshot() []byte {
	s := &Snapshot{
		Version: SnapshotVersion,
		Meta:    SnapshotMeta{RequestedAt: 123456, Boundary: 123456, Phase: 2, Nodes: 4},
	}
	s.Add("procs", func(w *SnapWriter) {
		w.Int(4)
		for i := 0; i < 4; i++ {
			w.Int(i)
			w.U8(2)
			w.Time(Time(1000 * i))
			w.U64(uint64(i) * 17)
		}
	})
	s.Add("fm", func(w *SnapWriter) {
		w.Str("reliability")
		w.F64(3.5)
		w.Bool(true)
	})
	s.Add("empty", func(w *SnapWriter) {})
	return s.Encode()
}

// withVersion returns a resealed copy of data claiming format version ver.
func withVersion(data []byte, ver uint32) []byte {
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut[8:], ver)
	return reseal(mut)
}

// reseal recomputes the trailing checksum so structural mutations are
// exercised past the CRC gate.
func reseal(data []byte) []byte {
	body := data[:len(data)-8]
	binary.LittleEndian.PutUint64(data[len(data)-8:], crc64.Checksum(body, crcSnapshot))
	return data
}

// FuzzRestore feeds arbitrary bytes to the snapshot decoder: whatever the
// input, Restore must either round-trip a valid snapshot or return a typed
// *BadSnapshotError — never panic, never return a half-decoded snapshot.
func FuzzRestore(f *testing.F) {
	valid := fuzzSeedSnapshot()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DPASNAP1"))
	f.Add(valid[:len(valid)/2])
	// A future and a past version with a recomputed CRC: reach the version
	// check.
	for _, ver := range []uint32{SnapshotVersion + 1, 1} {
		f.Add(withVersion(valid, ver))
	}
	// Section-length corruption with a recomputed CRC: reaches the framing
	// checks.
	badLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badLen[36:], 1<<30)
	f.Add(reseal(badLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
			}
			if s != nil {
				t.Fatal("Restore returned both a snapshot and an error")
			}
			return
		}
		// A successful decode must re-encode to the same bytes (canonical
		// format) and decode again to the same structure.
		re := s.Encode()
		s2, err := Restore(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if d := s.Diff(s2); d != "" {
			t.Fatalf("decode/encode/decode not idempotent: %s", d)
		}
	})
}

func TestRestoreRoundTrip(t *testing.T) {
	data := fuzzSeedSnapshot()
	s, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta.RequestedAt != 123456 || s.Meta.Nodes != 4 || len(s.Sections) != 3 {
		t.Fatalf("decoded snapshot %+v", s)
	}
	if sec, ok := s.Section("fm"); !ok || len(sec) == 0 {
		t.Fatal("fm section missing after round trip")
	}
	if !errors.Is(func() error { _, err := Restore(data[:10]); return err }(), ErrBadSnapshot) {
		t.Error("truncated input not rejected")
	}
}

// TestRestoreRejectsCorruption walks every defect class the format guards
// against: truncation at each boundary, a flipped bit anywhere (CRC), a
// wrong version and inconsistent framing behind a valid CRC.
func TestRestoreRejectsCorruption(t *testing.T) {
	valid := fuzzSeedSnapshot()

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, err := Restore(valid[:n]); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("prefix of %d bytes accepted (err=%v)", n, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			if _, err := Restore(mut); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("bit flip at byte %d accepted (err=%v)", i, err)
			}
		}
	})
	t.Run("wrong-version-valid-crc", func(t *testing.T) {
		// A future version, and version-1, -3 and -4 files as older builds
		// wrote them: rejected by the version rule, never reinterpreted.
		for _, ver := range []uint32{SnapshotVersion + 7, 4, 3, 1} {
			s, err := Restore(withVersion(valid, ver))
			var bad *BadSnapshotError
			if s != nil || !errors.As(err, &bad) || !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("version %d: Restore = (%v, %v), want nil and a *BadSnapshotError", ver, s, err)
			}
			want := fmt.Sprintf("unsupported version %d (this build reads version %d)", ver, SnapshotVersion)
			if !strings.Contains(bad.Reason, want) {
				t.Fatalf("version %d: reason %q does not contain %q", ver, bad.Reason, want)
			}
		}
	})
	t.Run("oversized-section-valid-crc", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		// First section's name length field sits right after the fixed
		// 40-byte frame (magic 8 + version 4 + meta 24 + section count 4).
		binary.LittleEndian.PutUint32(mut[40:], 0xFFFF_FFF0)
		if _, err := Restore(reseal(mut)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("oversized section length accepted (err=%v)", err)
		}
	})
	t.Run("trailing-garbage-valid-crc", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut = append(mut[:len(mut)-8], 0xDE, 0xAD, 0xBE, 0xEF)
		mut = append(mut, make([]byte, 8)...)
		if _, err := Restore(reseal(mut)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("trailing garbage accepted (err=%v)", err)
		}
	})
}
