package sim

import (
	"errors"
	"fmt"
	"runtime"
)

// Tuning carries the parallel engine's one host-performance knob, its worker
// count. The zero value means the default: worker count from GOMAXPROCS. The
// sequential engine ignores it.
type Tuning struct {
	// Workers is the number of host worker shards the simulated processes
	// are partitioned across. 0 means auto: min(GOMAXPROCS, process count).
	// Explicit values must be in [1, process count].
	Workers int
}

// ErrBadTuning is the sentinel matched by errors.Is for invalid engine
// tuning: a worker count out of range, or a parallel engine without a
// positive lookahead.
var ErrBadTuning = errors.New("sim: invalid engine tuning")

// TuningError reports one rejected engine-tuning parameter. It unwraps to
// ErrBadTuning.
type TuningError struct {
	// Field names the offending parameter ("workers", "lookahead").
	Field string
	// Value is the rejected value.
	Value int64
	// Reason says what constraint the value violated.
	Reason string
}

func (e *TuningError) Error() string {
	return fmt.Sprintf("sim: invalid engine tuning: %s = %d %s", e.Field, e.Value, e.Reason)
}

// Unwrap makes errors.Is(err, ErrBadTuning) true.
func (e *TuningError) Unwrap() error { return ErrBadTuning }

// Validate checks the tuning against a process count. Pass procs <= 0 when
// the process count is not yet known (the workers-vs-procs bound is then
// rechecked by the engine at Run).
func (t Tuning) Validate(procs int) error {
	if t.Workers < 0 {
		return &TuningError{Field: "workers", Value: int64(t.Workers), Reason: "must be >= 1 (or 0 for auto)"}
	}
	if procs > 0 && t.Workers > procs {
		return &TuningError{Field: "workers", Value: int64(t.Workers),
			Reason: fmt.Sprintf("exceeds the %d simulated processes", procs)}
	}
	return nil
}

// resolveWorkers returns the effective worker count for procs processes.
// Validate must have accepted the tuning first.
func (t Tuning) resolveWorkers(procs int) int {
	w := t.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > procs {
		w = procs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NewEngineWith returns an engine of the given kind with the given tuning.
// The lookahead is the context-provided conservative window (the machine's
// minimum cross-process message delay) and, under either kind, a promise
// about the caller's Posts: every cross-process arrival lies at least that
// far past the sender's clock. The sequential engine widens its horizons by
// it (a non-positive value means 0, i.e. NewEngine); the parallel engine
// opens windows of exactly that width and needs it positive. Tuning problems
// are reported as a *TuningError rather than a panic.
func NewEngineWith(kind EngineKind, lookahead Time, t Tuning) (Engine, error) {
	if kind == Sequential {
		return &SeqEngine{lookahead: max(lookahead, 0)}, nil
	}
	if err := t.Validate(0); err != nil {
		return nil, err
	}
	if lookahead <= 0 {
		return nil, &TuningError{Field: "lookahead", Value: int64(lookahead),
			Reason: "must be positive for the parallel engine"}
	}
	return NewParallel(lookahead, t.Workers), nil
}
