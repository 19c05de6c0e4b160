package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the span that was open when this one began, -1 at the top.
type span struct {
	Name     string
	Workload string
	Parent   int
	Start    time.Duration // since the log was created
	End      time.Duration
}

// spanLog keeps spans in memory; the benchmark runs its calls on one
// goroutine, so the open spans form a stack. A nil *spanLog records nothing,
// which is how the untraced runs execute the same code.
type spanLog struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) (end func()) {
	if l == nil {
		return func() {}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Workload: l.workload, Parent: parent, Start: time.Since(l.t0)})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].End = time.Since(l.t0)
		l.open = l.open[:len(l.open)-1]
	}
}

// total sums, in seconds, the spans named name that began at or after from.
func (l *spanLog) total(name string, from int) float64 {
	var d time.Duration
	for _, s := range l.spans[from:] {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// writeChrome writes the spans as Chrome trace_event JSON (complete events,
// microseconds), one thread row per workload, loadable in Perfetto.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	tids := map[string]int{}
	events := []any{}
	for id, s := range l.spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
			events = append(events, map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": s.Workload}})
		}
		events = append(events, event{s.Name, "X", us(s.Start), us(s.End - s.Start), 1, tid,
			map[string]any{"id": id, "parent": s.Parent, "workload": s.Workload}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
