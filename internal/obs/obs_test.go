package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"dpa/internal/sim"
)

func TestSpanCoalescing(t *testing.T) {
	tr := NewTracer(1, 16)
	nt := tr.Attach(0)
	// Adjacent same-category intervals merge; a gap or category change
	// starts a new span.
	nt.Span(sim.Compute, 0, 10)
	nt.Span(sim.Compute, 10, 25)
	nt.Span(sim.Idle, 25, 30)
	nt.Span(sim.Compute, 40, 50) // gap: no merge with the first span
	nt.Span(sim.Compute, 50, 50) // zero-length: ignored
	spans, dropped := nt.Spans()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	want := []Span{
		{Start: 0, End: 25, Cat: sim.Compute},
		{Start: 25, End: 30, Cat: sim.Idle},
		{Start: 40, End: 50, Cat: sim.Compute},
	}
	if len(spans) != len(want) {
		t.Fatalf("spans = %+v, want %+v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	tr := NewTracer(1, 4)
	nt := tr.Attach(0)
	for i := 0; i < 10; i++ {
		nt.Event(KBarrier, sim.Time(i), int64(i), 0)
	}
	events, dropped := nt.Events()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(events) != 4 {
		t.Fatalf("kept %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Arg1 != int64(6+i) {
			t.Fatalf("event %d has Arg1 %d, want %d (newest kept)", i, e.Arg1, 6+i)
		}
	}
}

// TestRingGrowsToCapThenWraps: a ring starts empty, grows geometrically
// without ever holding more than its capacity, keeps push order across every
// growth step, and only then starts overwriting.
func TestRingGrowsToCapThenWraps(t *testing.T) {
	const max = 3*ringMin + 5 // not a power-of-two multiple: the last step is clamped
	r := ring[int]{max: max}
	if cap(r.buf) != 0 {
		t.Fatalf("a fresh ring holds %d entries of storage, want none", cap(r.buf))
	}
	for i := 0; i < max; i++ {
		r.push(i)
		if cap(r.buf) > max {
			t.Fatalf("after %d pushes the ring holds storage for %d entries, cap is %d", i+1, cap(r.buf), max)
		}
		if *r.last() != i {
			t.Fatalf("last() = %d after pushing %d", *r.last(), i)
		}
	}
	if cap(r.buf) != max || r.dropped != 0 {
		t.Fatalf("full ring: storage %d (want %d), dropped %d (want 0)", cap(r.buf), max, r.dropped)
	}
	for i := 0; i < max; i++ {
		if r.at(i) != i {
			t.Fatalf("at(%d) = %d: growth reordered the entries", i, r.at(i))
		}
	}
	r.push(max)
	r.push(max + 1)
	if r.len() != max || r.dropped != 2 || r.at(0) != 2 || *r.last() != max+1 {
		t.Fatalf("wrap: len %d dropped %d oldest %d newest %d", r.len(), r.dropped, r.at(0), *r.last())
	}
}

func TestPhaseOffset(t *testing.T) {
	tr := NewTracer(2, 8)
	nt := tr.Attach(0)
	nt.Event(KStrip, 100, 0, 50)
	nt.Span(sim.Compute, 0, 100)
	tr.EndPhase(1000)
	if tr.Offset() != 1000 {
		t.Fatalf("offset = %d, want 1000", tr.Offset())
	}
	nt = tr.Attach(0)
	nt.Event(KStrip, 100, 50, 50)
	nt.Span(sim.Compute, 0, 100)
	events, _ := nt.Events()
	if events[0].Time != 100 || events[1].Time != 1100 {
		t.Fatalf("event times = %d, %d; want 100, 1100", events[0].Time, events[1].Time)
	}
	spans, _ := nt.Spans()
	// Phase 2's compute span must not coalesce with phase 1's: they are not
	// adjacent once the offset is applied (1000 != 100).
	if len(spans) != 2 || spans[1].Start != 1000 || spans[1].End != 1100 {
		t.Fatalf("spans = %+v, want two spans with the second at [1000,1100)", spans)
	}
}

func TestChromeTraceIsValidJSONAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(2, 8)
		for n := 0; n < 2; n++ {
			nt := tr.Attach(n)
			nt.Span(sim.Compute, 0, 500)
			nt.Span(sim.Idle, 500, 900)
			nt.Event(KFetchReq, 120, 77, 1)
			nt.EventDur(KThread, 200, 54, 77, 0)
			nt.Event(KBarrier, 900, 1, 0)
		}
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of identical traces differ")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", a.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var xEvents, iEvents, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			xEvents++
		case "i":
			iEvents++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// Per node: 2 spans + 1 thread span = 3 "X", 2 instants.
	if xEvents != 6 || iEvents != 4 {
		t.Fatalf("got %d X and %d i events, want 6 and 4", xEvents, iEvents)
	}
	if meta == 0 {
		t.Fatal("no metadata events (process/thread names)")
	}
}
