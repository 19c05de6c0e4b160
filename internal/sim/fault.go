package sim

import (
	"errors"
	"fmt"
)

// ErrBadFaults is the sentinel matched by errors.Is for FaultParams that
// Validate rejects. Every rejection wraps it as its message's prefix, so the
// message reads "sim: fault <field> = <value>, ...".
var ErrBadFaults = errors.New("sim: fault")

// FaultParams configures deterministic fault injection. All rates are
// probabilities in [0, 1]; a zero value injects nothing.
//
// Every fault decision is drawn from a counter-mode PRNG keyed on
// (Seed, stream, sender id, per-sender counter) — a pure function of the
// simulated program's own event order, never of host interleaving or
// wall-clock time. The sequential and parallel engines therefore produce
// identical fault schedules for the same seed, and a faulty run is exactly
// as reproducible as a fault-free one.
type FaultParams struct {
	// Seed keys the fault schedule. Two runs with the same seed (and the
	// same program) see identical faults.
	Seed uint64
	// DropRate is the probability that a message is silently lost in the
	// network.
	DropRate float64
	// DupRate is the probability that a message is delivered twice (the
	// duplicate arrives with an independent extra delay in [0, MaxJitter]).
	DupRate float64
	// JitterRate is the probability that a message is delayed by an extra
	// jitter drawn uniformly from [1, MaxJitter] cycles. Jitter only ever
	// adds delay, so it is safe under the parallel engine's lookahead
	// contract.
	JitterRate float64
	// MaxJitter bounds the extra delay, in cycles. Zero disables jitter
	// even when JitterRate > 0.
	MaxJitter Time
	// StallRate is the probability that a node freezes for StallCycles when
	// it checks the network (a transient node stall: GC pause, OS
	// interference, ...). Stalled cycles are charged to the Stall category.
	StallRate float64
	// StallCycles is the length of one injected stall.
	StallCycles Time
	// CrashRate is the probability that a node crashes permanently: at its
	// first network check at or after CrashAt it stops executing for the
	// rest of the run. Unlike the transient faults above, a crash is drawn
	// once per node (not per message), keyed on the node id alone, so the
	// doomed set is a pure function of (Seed, CrashRate) — identical across
	// engines and repeats.
	CrashRate float64
	// CrashAt is the virtual time at or after which doomed nodes die. Zero
	// disables crashes even when CrashRate > 0.
	CrashAt Time
}

// Any reports whether the parameters inject any fault at all.
func (f *FaultParams) Any() bool {
	return f.DropRate > 0 || f.DupRate > 0 ||
		(f.JitterRate > 0 && f.MaxJitter > 0) ||
		(f.StallRate > 0 && f.StallCycles > 0) ||
		(f.CrashRate > 0 && f.CrashAt > 0)
}

// Validate rejects parameters with no defined meaning with an error that
// wraps ErrBadFaults.
func (f *FaultParams) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropRate", f.DropRate}, {"DupRate", f.DupRate},
		{"JitterRate", f.JitterRate}, {"StallRate", f.StallRate},
		{"CrashRate", f.CrashRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("%w %s = %v, must be in [0, 1]", ErrBadFaults, r.name, r.v)
		}
	}
	if f.MaxJitter < 0 {
		return fmt.Errorf("%w MaxJitter = %d, must be >= 0", ErrBadFaults, f.MaxJitter)
	}
	if f.StallCycles < 0 {
		return fmt.Errorf("%w StallCycles = %d, must be >= 0", ErrBadFaults, f.StallCycles)
	}
	if f.CrashAt < 0 {
		return fmt.Errorf("%w CrashAt = %d, must be >= 0", ErrBadFaults, f.CrashAt)
	}
	return nil
}

// MsgFate is the fault verdict for one message send.
type MsgFate struct {
	// Drop: the message never arrives.
	Drop bool
	// Dup: a second copy arrives, DupJitter cycles after the nominal
	// arrival time.
	Dup bool
	// Jitter is extra delay added to the nominal arrival time (0 = none).
	Jitter Time
	// DupJitter is the duplicate's extra delay (meaningful when Dup).
	DupJitter Time
}

// FaultPlan draws fault decisions from FaultParams. It is stateless (pure
// counter mode), so one plan may be shared by all nodes without
// synchronization.
type FaultPlan struct {
	p FaultParams
}

// NewFaultPlan returns a plan for the given parameters, or nil when they
// inject nothing (callers test plan == nil on the hot path).
func NewFaultPlan(p FaultParams) *FaultPlan {
	if !p.Any() {
		return nil
	}
	return &FaultPlan{p: p}
}

// Params returns the plan's parameters.
func (f *FaultPlan) Params() FaultParams { return f.p }

// Per-decision stream constants, so the draws for one (sender, seq) pair are
// independent of each other.
const (
	streamDrop uint64 = iota + 1
	streamDup
	streamJitterHit
	streamJitterAmt
	streamDupAmt
	streamStall
	streamCrash
)

// fmix64 is the splitmix64 finalizer: a bijective avalanche mix.
func fmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw produces one pseudo-random 64-bit value for (stream, a, b) under the
// plan's seed. Nested mixing keeps distinct key tuples from colliding.
func (f *FaultPlan) draw(stream, a, b uint64) uint64 {
	return fmix64(f.p.Seed ^ fmix64(stream+fmix64(a+fmix64(b))))
}

// unit maps a draw to [0, 1) with 53 bits of precision.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Message returns the fate of the seq-th fault-eligible message sent by
// sender. seq must advance in the sender's program order.
func (f *FaultPlan) Message(sender int, seq uint64) MsgFate {
	s := uint64(sender)
	var fate MsgFate
	if f.p.DropRate > 0 && unit(f.draw(streamDrop, s, seq)) < f.p.DropRate {
		fate.Drop = true
		return fate
	}
	if f.p.JitterRate > 0 && f.p.MaxJitter > 0 &&
		unit(f.draw(streamJitterHit, s, seq)) < f.p.JitterRate {
		fate.Jitter = 1 + Time(f.draw(streamJitterAmt, s, seq)%uint64(f.p.MaxJitter))
	}
	if f.p.DupRate > 0 && unit(f.draw(streamDup, s, seq)) < f.p.DupRate {
		fate.Dup = true
		if f.p.MaxJitter > 0 {
			fate.DupJitter = Time(f.draw(streamDupAmt, s, seq) % uint64(f.p.MaxJitter+1))
		}
	}
	return fate
}

// Stall returns the stall duration (possibly 0) injected at the op-th
// network check of the given node. op must advance in the node's program
// order.
func (f *FaultPlan) Stall(node int, op uint64) Time {
	if f.p.StallRate <= 0 || f.p.StallCycles <= 0 {
		return 0
	}
	if unit(f.draw(streamStall, uint64(node), op)) < f.p.StallRate {
		return f.p.StallCycles
	}
	return 0
}

// CrashTime reports whether the given node is doomed to crash and at what
// virtual time. The verdict is drawn once per node id — never per event — so
// the doomed set is fixed the moment the plan is built, and callers (tests,
// harnesses) can enumerate it without replaying the run.
func (f *FaultPlan) CrashTime(node int) (Time, bool) {
	if f.p.CrashRate <= 0 || f.p.CrashAt <= 0 {
		return 0, false
	}
	if unit(f.draw(streamCrash, uint64(node), 0)) < f.p.CrashRate {
		return f.p.CrashAt, true
	}
	return 0, false
}
