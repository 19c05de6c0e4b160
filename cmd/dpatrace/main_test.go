package main

import (
	"bytes"
	"testing"

	"dpa/internal/obs"
	"dpa/internal/sim"
)

// synthTrace builds a two-node trace through the real exporter so the test
// exercises the same format dpabench -traceout produces.
//
// Node 1 (requester): compute [0,100) with a fetch_req for key 7 to owner 0
// at t=90, idle [100,200), handler [200,220) containing the fetch_reply at
// t=205, compute [220,400).
// Node 0 (owner): compute [0,140), handler [140,160) containing the
// fetch_serve of requester 1 at t=145, then idle.
func synthTrace(t *testing.T) *trace {
	t.Helper()
	parsed, err := parseTrace(synthTraceBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// synthTraceBytes is synthTrace's exported Chrome trace_event JSON.
func synthTraceBytes(t testing.TB) []byte {
	t.Helper()
	tr := obs.NewTracer(2, 0)
	n0, n1 := tr.Attach(0), tr.Attach(1)

	n1.Span(sim.Compute, 0, 100)
	n1.Event(obs.KFetchReq, 90, 7, 0)
	n1.Span(sim.Idle, 100, 200)
	n1.Span(sim.HandlerOv, 200, 220)
	n1.Event(obs.KFetchReply, 205, 7, 0)
	n1.Span(sim.Compute, 220, 400)

	n0.Span(sim.Compute, 0, 140)
	n0.Span(sim.HandlerOv, 140, 160)
	n0.Event(obs.KFetchServe, 145, 1, 1)
	n0.Span(sim.Idle, 160, 400)

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestParseTrace(t *testing.T) {
	tr := synthTrace(t)
	if len(tr.pids) != 2 {
		t.Fatalf("nodes = %d, want 2", len(tr.pids))
	}
	n1 := tr.nodes[1]
	if len(n1.spans) != 4 || len(n1.events) != 2 {
		t.Fatalf("node 1 parsed %d spans / %d events, want 4 / 2", len(n1.spans), len(n1.events))
	}
	if s := n1.spans[2]; s.start != 200 || s.end != 220 || s.cat != "handler" {
		t.Errorf("handler span = %+v", s)
	}
	if e := n1.events[1]; e.name != "fetch_reply" || e.ts != 205 || e.a1 != 7 || e.a2 != 0 {
		t.Errorf("reply event = %+v", e)
	}
}

func TestParseTraceRejectsEmpty(t *testing.T) {
	if _, err := parseTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := parseTrace([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestFetchLatencies(t *testing.T) {
	lats := fetchLatencies(synthTrace(t))
	if len(lats) != 1 || lats[0] != 115 {
		t.Fatalf("latencies = %v, want [115] (reply 205 - request 90)", lats)
	}
}

// TestFetchLatenciesDuplicatedReplies: the reliability layer can deliver a
// reply twice (dup fault, retransmit race), and a node can legitimately
// re-request a key it dropped at a strip boundary. Each request must pair
// with at most one reply, oldest-first, and surplus replies must be ignored.
func TestFetchLatenciesDuplicatedReplies(t *testing.T) {
	tr := obs.NewTracer(1, 0)
	n := tr.Attach(0)
	n.Span(sim.Compute, 0, 300)
	n.Event(obs.KFetchReq, 10, 7, 1)    // first fetch of key 7
	n.Event(obs.KFetchReq, 40, 7, 1)    // re-fetch of the same key
	n.Event(obs.KFetchReply, 100, 7, 1) // answers the t=10 request: 90
	n.Event(obs.KFetchReply, 120, 7, 1) // answers the t=40 request: 80
	n.Event(obs.KFetchReply, 150, 7, 1) // duplicated reply: no request left, ignored
	n.Event(obs.KFetchReply, 200, 9, 1) // reply with no request at all: ignored
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := parseTrace(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lats := fetchLatencies(parsed)
	if len(lats) != 2 || lats[0] != 90 || lats[1] != 80 {
		t.Fatalf("latencies = %v, want [90 80] (each request pairs once, dups ignored)", lats)
	}
}

// TestBusyRowsTieBreak: nodes with equal busy totals must order by pid
// ascending — the table and its -top truncation are part of the
// deterministic output contract.
func TestBusyRowsTieBreak(t *testing.T) {
	tr := obs.NewTracer(4, 0)
	// Nodes 3 and 1 tie at 100 busy cycles; node 2 leads; node 0 trails.
	for pid, busy := range map[int]sim.Time{0: 50, 1: 100, 2: 200, 3: 100} {
		n := tr.Attach(pid)
		n.Span(sim.Compute, 0, busy)
		n.Span(sim.Idle, busy, 400)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := parseTrace(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rows := busyRows(parsed)
	got := make([]int, len(rows))
	for i, r := range rows {
		got[i] = r.pid
	}
	if len(got) != 4 || got[0] != 2 || got[1] != 1 || got[2] != 3 || got[3] != 0 {
		t.Fatalf("row order = %v, want [2 1 3 0] (busy desc, pid asc on ties)", got)
	}
	const want = "" +
		" node         busy      waiting        total\n" +
		"    2          200          200          400\n" +
		"    1          100          300          400\n" +
		"  ... 2 more nodes\n"
	if table := totalsTable(rows, 2); table != want {
		t.Fatalf("table golden mismatch:\n got:\n%s want:\n%s", table, want)
	}
}

func TestLatencyHistogramBuckets(t *testing.T) {
	h := latencyHistogram([]int64{1, 2, 3, 4, 100, 127, 128})
	// 1 -> bucket 0; 2,3 -> bucket 1; 4 -> bucket 2; 100,127 -> bucket 6;
	// 128 -> bucket 7.
	want := map[int]int{0: 1, 1: 2, 2: 1, 6: 2, 7: 1}
	for k, v := range want {
		if h[k] != v {
			t.Errorf("bucket %d = %d, want %d (full: %v)", k, h[k], v, h)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	cp := criticalPath(synthTrace(t))
	if cp.makespan != 400 {
		t.Errorf("makespan = %d, want 400", cp.makespan)
	}
	if cp.hops != 1 {
		t.Errorf("hops = %d, want 1 (reply on node 1 hops to serving node 0)", cp.hops)
	}
	// Walk: node 1 compute [220,400) and handler [200,220) are back-to-back
	// (180+20); the idle gap before the handler was ended by the fetch reply,
	// hopping to node 0 at its serve (t=145) — inside the owner's handler
	// span, clipped to [140,145), then compute [0,140). 180+20+5+140 = 345.
	if cp.busy != 345 {
		t.Errorf("path busy = %d, want 345", cp.busy)
	}
	if cp.segments != 4 {
		t.Errorf("segments = %d, want 4", cp.segments)
	}
}

func TestCriticalPathNoEvents(t *testing.T) {
	// A trace with no fetch events must still terminate: the walk descends
	// one node's spans and stops at the start of its record.
	tr := obs.NewTracer(1, 0)
	n := tr.Attach(0)
	n.Span(sim.Compute, 0, 50)
	n.Span(sim.Idle, 50, 90)
	n.Span(sim.Compute, 90, 100)
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := parseTrace(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cp := criticalPath(parsed)
	if cp.makespan != 100 || cp.busy != 60 || cp.hops != 0 {
		t.Errorf("cp = %+v, want makespan 100, busy 60, hops 0", cp)
	}
}

// FuzzParseTrace holds the analyzer to its input contract: for arbitrary
// bytes, parseTrace either returns an error, or busyRows, fetchLatencies and
// criticalPath all finish without a panic.
func FuzzParseTrace(f *testing.F) {
	good := synthTraceBytes(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := parseTrace(data)
		if err != nil {
			return
		}
		busyRows(tr)
		fetchLatencies(tr)
		criticalPath(tr)
	})
}
