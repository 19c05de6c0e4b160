package stats

import "time"

// HostBench records one host-side performance measurement of the simulator
// itself — wall-clock nanoseconds, bytes, and allocations per simulated run —
// as opposed to every other type in this package, which measures simulated
// time. It is the row format of the tracked benchmark baseline
// (BENCH_1.json, emitted by cmd/dpabench -json) that CI compares runs
// against.
type HostBench struct {
	// Name identifies the measurement, e.g. "Engine/sequential".
	Name string `json:"name"`
	// Iters is how many runs the measurement averaged over.
	Iters int `json:"iters"`
	// NsPerOp is wall-clock nanoseconds per run.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is heap bytes allocated per run.
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is heap allocations per run.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Resumes is the engine's coroutine switches into a simulated process
	// in the last run (HostSched.Resumes): a count, not a timing — under
	// the sequential engine it repeats exactly from run to run.
	Resumes int64 `json:"resumes,omitempty"`
	// Parks is the parallel engine's barrier waits that ended asleep in the
	// last run (HostSched.Parks): a host-timing count, 0 under the
	// sequential engine.
	Parks int64 `json:"parks,omitempty"`
}

// MsPerOp returns the measurement in milliseconds per run, the natural unit
// for whole-simulation benchmarks.
func (h HostBench) MsPerOp() float64 { return h.NsPerOp / float64(time.Millisecond) }
