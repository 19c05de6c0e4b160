package machine

import (
	"testing"

	"dpa/internal/sim"
)

func TestRecordSpansManyBins(t *testing.T) {
	tl := newTimeline(10, 1)
	tl.record(0, sim.Compute, 5, 995)
	if got := len(tl.Bins[0]); got != 100 {
		t.Fatalf("bins = %d, want 100", got)
	}
	if got := tl.Bins[0][0][sim.Compute]; got != 5 {
		t.Errorf("first bin = %d, want 5 (partial)", got)
	}
	if got := tl.Bins[0][99][sim.Compute]; got != 5 {
		t.Errorf("last bin = %d, want 5 (partial)", got)
	}
	var total sim.Time
	for _, b := range tl.Bins[0] {
		if b[sim.Compute] > 10 {
			t.Fatalf("a bin holds %d cycles, more than its width", b[sim.Compute])
		}
		total += b[sim.Compute]
	}
	if total != 990 {
		t.Errorf("recorded total = %d, want 990", total)
	}
}

func TestRecordZeroLengthInterval(t *testing.T) {
	tl := newTimeline(10, 1)
	tl.record(0, sim.Compute, 50, 50)
	tl.record(0, sim.Compute, 60, 40) // inverted: also a no-op
	if got := len(tl.Bins[0]); got != 0 {
		t.Fatalf("zero-length interval grew %d bins, want 0", got)
	}
}

func TestRecordEndsExactlyOnBinEdge(t *testing.T) {
	tl := newTimeline(50, 1)
	tl.record(0, sim.Idle, 0, 100)
	// [0,100) with width 50 fills exactly bins 0 and 1; a third bin would
	// mean the edge case allocated an empty trailing bin.
	if got := len(tl.Bins[0]); got != 2 {
		t.Fatalf("bins = %d, want exactly 2", got)
	}
	if tl.Bins[0][0][sim.Idle] != 50 || tl.Bins[0][1][sim.Idle] != 50 {
		t.Errorf("bins = %d,%d, want 50,50",
			tl.Bins[0][0][sim.Idle], tl.Bins[0][1][sim.Idle])
	}
}

func TestGanttClampsWidthToBinCount(t *testing.T) {
	tl := newTimeline(10, 1)
	tl.record(0, sim.Compute, 0, 30) // 3 bins
	rows := tl.Gantt(80)
	// With fewer bins than requested columns the row must shrink to one
	// column per bin; re-rendering bins across several columns stretched
	// short runs to the full width.
	if len(rows[0]) != 3 {
		t.Fatalf("row width = %d, want 3 (clamped to bin count)", len(rows[0]))
	}
	if rows[0] != "###" {
		t.Errorf("row = %q, want \"###\"", rows[0])
	}
}

func TestGanttWideRunsKeepRequestedWidth(t *testing.T) {
	tl := newTimeline(10, 1)
	tl.record(0, sim.Compute, 0, 1000) // 100 bins
	rows := tl.Gantt(20)
	if len(rows[0]) != 20 {
		t.Fatalf("row width = %d, want 20", len(rows[0]))
	}
}

func TestAppendShifted(t *testing.T) {
	a := newTimeline(10, 1)
	a.record(0, sim.Compute, 0, 10)
	b := newTimeline(10, 1)
	b.record(0, sim.Idle, 0, 10)
	b.record(0, sim.Compute, 10, 15)

	a.AppendShifted(b, 100)
	if got := len(a.Bins[0]); got != 12 {
		t.Fatalf("bins after append = %d, want 12", got)
	}
	if a.Bins[0][0][sim.Compute] != 10 {
		t.Errorf("original bin disturbed: %d", a.Bins[0][0][sim.Compute])
	}
	if a.Bins[0][10][sim.Idle] != 10 {
		t.Errorf("shifted idle bin = %d, want 10", a.Bins[0][10][sim.Idle])
	}
	if a.Bins[0][11][sim.Compute] != 5 {
		t.Errorf("shifted compute bin = %d, want 5", a.Bins[0][11][sim.Compute])
	}
	// The source must be untouched.
	if len(b.Bins[0]) != 2 || b.Bins[0][0][sim.Idle] != 10 {
		t.Errorf("source timeline mutated: %+v", b.Bins[0])
	}
}

func TestAppendShiftedBinWidthMismatchPanics(t *testing.T) {
	a := newTimeline(10, 1)
	b := newTimeline(20, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bin-width mismatch")
		}
	}()
	a.AppendShifted(b, 0)
}
