package driver_test

import (
	"errors"
	"math"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fm"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// FuzzFaultConfig holds machine.FaultConfig to its contract: a config that
// Validate rejects is refused with an error, never a panic, and one it
// accepts carries a 4-phase, 8-node EM3D run to the end under both engines,
// with identical run tables and an error that is nil or typed — every leaf
// wraps fm.ErrUnreachable, machine.ErrCrashed or sim.ErrDeadlock. The rates
// are drawn as raw float64 (NaN and out-of-range values included) and the
// cycle counts from 32 bits, negatives included, which covers every rule
// Validate states. The reliability knobs are drawn from small ranges: they
// scale how long a death takes to detect, and past these bounds a run only
// spends longer probing live peers.
func FuzzFaultConfig(f *testing.F) {
	type knobs = struct {
		seed                         uint64
		drop, dup, jitter, stall     float64
		crash                        float64
		maxJitter, stallCyc, crashAt int32
		reliable                     bool
		window, backoff, retries     uint8
		rto, ackBytes                uint16
	}
	add := func(k knobs) {
		f.Add(k.seed, k.drop, k.dup, k.jitter, k.stall, k.crash, k.maxJitter, k.stallCyc, k.crashAt,
			k.reliable, k.window, k.backoff, k.retries, k.rto, k.ackBytes)
	}
	add(knobs{})                                                 // fault-free
	add(knobs{seed: 7, drop: math.NaN()})                        // rejected
	add(knobs{seed: 7, drop: 0.05, jitter: 0.2, maxJitter: 300}) // CI's lossy flags
	add(knobs{seed: 3, drop: 0.03, crash: 0.4, crashAt: 20000})  // nodes 0, 1 and 6 die
	add(knobs{seed: 9, crash: 0.125, crashAt: 20000, rto: 4096}) // node 1 alone, interior
	add(knobs{seed: 5, drop: 0.5, stall: 0.1, stallCyc: 50000, crash: 0.3, crashAt: 5000,
		reliable: true, window: 2, backoff: 3, retries: 2, rto: 512, ackBytes: 16})
	add(knobs{seed: 1, dup: 0.2, crash: 1, crashAt: -1}) // rejected

	prm := em3d.DefaultParams(64)
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, jitter, stall, crash float64,
		maxJitter, stallCyc, crashAt int32, reliable bool, window, backoff, retries uint8, rto, ackBytes uint16) {
		cfg := machine.DefaultT3D(8)
		cfg.Faults = machine.FaultConfig{
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
		if cfg.Validate() != nil {
			return
		}
		var seq stats.Run
		for _, eng := range []sim.EngineKind{sim.Sequential, sim.Parallel} {
			c := cfg
			c.Engine = eng
			run, _ := em3d.RunIters(c, driver.DPASpec(50), prm, 2)
			if run.Err != nil && !typedFault(run.Err) {
				t.Fatalf("%+v under %v: untyped error %v", cfg.Faults, eng, run.Err)
			}
			if eng == sim.Sequential {
				seq = run
			} else if d := seq.Diff(run); d != "" {
				t.Fatalf("%+v: engines disagree: %s", cfg.Faults, d)
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
