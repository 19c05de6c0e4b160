package driver_test

import (
	"errors"
	"math"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fm"
	"dpa/internal/harness"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// FuzzFaultConfig holds machine.FaultConfig and a capture-mode
// machine.CheckpointSpec to their contract, on a harness.Cell whose machine
// carries them: a config that the cell's Validate rejects is refused with an
// error wrapping sim.ErrBadFaults (or, for the checkpoint,
// machine.ErrBadCheckpoint), never a panic, and one it accepts carries a
// 4-phase, 8-node EM3D run to the end under both engines, with
// identical run tables and an error that is nil or typed — every leaf wraps
// fm.ErrUnreachable, machine.ErrCrashed or sim.ErrDeadlock. A checkpoint
// time that is not positive is rejected with machine.ErrBadCheckpoint; an
// accepted one is delivered at most once per run, at RequestedAt == At,
// and leaves the run table equal to the same run's without the checkpoint.
// The rates are drawn as raw float64 (NaN and out-of-range values included)
// and the cycle counts from 32 bits, negatives included, which covers every
// rule Validate states. The reliability knobs are drawn from small ranges:
// they scale how long a death takes to detect, and past these bounds a run
// only spends longer probing live peers. A failure prints the cell with %#v,
// ready to paste into a regression test.
func FuzzFaultConfig(f *testing.F) {
	type knobs = struct {
		seed                         uint64
		drop, dup, jitter, stall     float64
		crash                        float64
		maxJitter, stallCyc, crashAt int32
		reliable                     bool
		window, backoff, retries     uint8
		rto, ackBytes                uint16
		ckAt                         int32
	}
	add := func(k knobs) {
		f.Add(k.seed, k.drop, k.dup, k.jitter, k.stall, k.crash, k.maxJitter, k.stallCyc, k.crashAt,
			k.reliable, k.window, k.backoff, k.retries, k.rto, k.ackBytes, k.ckAt)
	}
	add(knobs{})                                                              // fault-free, checkpoint rejected
	add(knobs{ckAt: 1})                                                       // fault-free, captured at the first event
	add(knobs{seed: 7, drop: math.NaN(), ckAt: 30000})                        // rejected
	add(knobs{seed: 7, drop: 0.05, jitter: 0.2, maxJitter: 300, ckAt: 30000}) // CI's lossy flags
	add(knobs{seed: 3, drop: 0.03, crash: 0.4, crashAt: 20000, ckAt: 60000})  // nodes 0, 1 and 6 die
	add(knobs{seed: 9, crash: 0.125, crashAt: 20000, rto: 4096, ckAt: -5})    // node 1 alone, interior; checkpoint rejected
	add(knobs{seed: 5, drop: 0.5, stall: 0.1, stallCyc: 50000, crash: 0.3, crashAt: 5000,
		reliable: true, window: 2, backoff: 3, retries: 2, rto: 512, ackBytes: 16, ckAt: math.MaxInt32})
	add(knobs{seed: 1, dup: 0.2, crash: 1, crashAt: -1, ckAt: 30000}) // rejected

	prm := em3d.DefaultParams(64)
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, jitter, stall, crash float64,
		maxJitter, stallCyc, crashAt int32, reliable bool, window, backoff, retries uint8, rto, ackBytes uint16, ckAt int32) {
		cell := harness.Cell{App: "em3d", EM3D: prm, Iters: 2, Spec: driver.DPASpec(50), Machine: machine.DefaultT3D(8)}
		cell.Machine.Faults = machine.FaultConfig{
			FaultParams: sim.FaultParams{
				Seed: seed, DropRate: drop, DupRate: dup, JitterRate: jitter, MaxJitter: sim.Time(maxJitter),
				StallRate: stall, StallCycles: sim.Time(stallCyc), CrashRate: crash, CrashAt: sim.Time(crashAt),
			},
			Reliable:      reliable,
			RelWindow:     int(window % 64),
			RelRTO:        sim.Time(rto),
			RelBackoff:    int(backoff % 4),
			RelMaxRetries: 1 + int(retries%6),
			RelAckBytes:   int(ackBytes % 64),
		}
		if err := cell.Validate(); err != nil {
			if !errors.Is(err, sim.ErrBadFaults) {
				t.Fatalf("%#v rejected with an untyped error: %v", cell, err)
			}
			return
		}
		delivered := 0
		ck := func() *machine.CheckpointSpec {
			return &machine.CheckpointSpec{At: sim.Time(ckAt), Deliver: func(s *sim.Snapshot, err error) {
				delivered++
				if s.Meta.RequestedAt != sim.Time(ckAt) {
					t.Errorf("checkpoint at %d delivered RequestedAt %d", ckAt, s.Meta.RequestedAt)
				}
			}}
		}
		withCk := cell
		withCk.Machine.Checkpoint = ck()
		err := withCk.Validate()
		if ckAt <= 0 {
			if !errors.Is(err, machine.ErrBadCheckpoint) {
				t.Fatalf("checkpoint at %d: Validate = %v, want ErrBadCheckpoint", ckAt, err)
			}
		} else if err != nil {
			t.Fatalf("checkpoint at %d rejected: %v", ckAt, err)
		}
		var seq stats.Run
		for _, eng := range []sim.EngineKind{sim.Sequential, sim.Parallel} {
			c := cell
			c.Machine.Engine = eng
			run, _ := c.Exec()
			if run.Err != nil && !typedFault(run.Err) {
				t.Fatalf("%#v: untyped error %v", c, run.Err)
			}
			if eng == sim.Sequential {
				seq = run
			} else if d := seq.Diff(run); d != "" {
				t.Fatalf("%#v: engines disagree: %s", c, d)
			}
			if ckAt <= 0 {
				continue
			}
			withCk := c
			withCk.Machine.Checkpoint, delivered = ck(), 0
			ckRun, _ := withCk.Exec()
			if delivered > 1 {
				t.Fatalf("%#v, checkpoint at %d: delivered %d times", c, ckAt, delivered)
			}
			if d := seq.Diff(ckRun); d != "" {
				t.Fatalf("%#v, checkpoint at %d: run differs from the run without it: %s", c, ckAt, d)
			}
		}
	})
}

// typedFault reports whether every leaf of err's join tree wraps one of the
// sentinels a faulty run may end with.
func typedFault(err error) bool {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			if !typedFault(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, fm.ErrUnreachable) || errors.Is(err, machine.ErrCrashed) || errors.Is(err, sim.ErrDeadlock)
}
