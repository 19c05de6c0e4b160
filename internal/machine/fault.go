package machine

import (
	"dpa/internal/sim"
)

// FaultConfig couples the simulator's fault-injection parameters with the
// knobs of the fm reliability protocol that recovers from them. It lives on
// machine.Config so faults ride any existing run path (driver, applications,
// benchmarks) without new plumbing; the zero value means "no faults, no
// reliability layer" and leaves every existing result bit-identical.
type FaultConfig struct {
	sim.FaultParams

	// Reliable forces the fm reliability layer on even when no loss is
	// injected (e.g. to measure protocol overhead at 0% drop). The layer is
	// enabled automatically whenever DropRate or DupRate is positive.
	Reliable bool

	// RelWindow is the per-destination send window: reliable frames in
	// flight to one destination before further sends queue in a backlog.
	// <= 0 selects the default (32).
	RelWindow int
	// RelRTO is the initial retransmission timeout in cycles. <= 0 selects
	// the default (65536 cycles). The timeout must cover not just the wire
	// round trip but the receiver's dispatch latency — an active message is
	// only acked when the receiver polls it, which can be a full compute
	// strip after it arrives — or every slow dispatch turns into a spurious
	// retransmission.
	RelRTO sim.Time
	// RelBackoff multiplies the timeout after each retransmission
	// (exponential backoff). < 2 selects the default (2).
	RelBackoff int
	// RelMaxRetries is the retransmission cap per frame; when exhausted the
	// destination is declared unreachable (ErrUnreachable) and the runtimes
	// degrade instead of hanging. <= 0 selects the default (8).
	RelMaxRetries int
	// RelAckBytes is the modeled wire size of an ack. <= 0 selects the
	// default (8).
	RelAckBytes int
}

// Default reliability-protocol knobs.
const (
	DefaultRelWindow     = 32
	DefaultRelRTO        = sim.Time(65536)
	DefaultRelBackoff    = 2
	DefaultRelMaxRetries = 8
	DefaultRelAckBytes   = 8
)

// DefaultFaults returns a FaultConfig injecting message loss at the given
// rate under the given seed, with the reliability protocol enabled.
func DefaultFaults(seed uint64, dropRate float64) FaultConfig {
	return FaultConfig{
		FaultParams: sim.FaultParams{Seed: seed, DropRate: dropRate},
		Reliable:    true,
	}
}

// Active reports whether this config changes anything at all: faults are
// injected or the reliability layer is on.
func (f *FaultConfig) Active() bool { return f.FaultParams.Any() || f.Reliable }

// NeedsReliability reports whether the fm layer must run its reliability
// protocol: explicitly requested, or required for correctness because
// messages can be lost or duplicated — or because nodes can crash, which
// survivors detect only through the protocol's retry cap. (Jitter and
// stalls only delay delivery, which the unmodified protocols tolerate.)
func (f *FaultConfig) NeedsReliability() bool {
	return f.Reliable || f.DropRate > 0 || f.DupRate > 0 || f.CrashActive()
}

// CrashActive reports whether the config schedules permanent node crashes.
// Crash runs additionally make fm probe the silent peers a node waits on, so
// a peer that died after acking everything is still declared unreachable.
func (f *FaultConfig) CrashActive() bool {
	return f.CrashRate > 0 && f.CrashAt > 0
}

// Window returns the effective send window.
func (f *FaultConfig) Window() int {
	if f.RelWindow <= 0 {
		return DefaultRelWindow
	}
	return f.RelWindow
}

// RTO returns the effective initial retransmission timeout.
func (f *FaultConfig) RTO() sim.Time {
	if f.RelRTO <= 0 {
		return DefaultRelRTO
	}
	return f.RelRTO
}

// Backoff returns the effective backoff multiplier.
func (f *FaultConfig) Backoff() int {
	if f.RelBackoff < 2 {
		return DefaultRelBackoff
	}
	return f.RelBackoff
}

// MaxRetries returns the effective retransmission cap.
func (f *FaultConfig) MaxRetries() int {
	if f.RelMaxRetries <= 0 {
		return DefaultRelMaxRetries
	}
	return f.RelMaxRetries
}

// AckBytes returns the effective modeled ack size.
func (f *FaultConfig) AckBytes() int {
	if f.RelAckBytes <= 0 {
		return DefaultRelAckBytes
	}
	return f.RelAckBytes
}

// Validate rejects configurations with no defined meaning.
func (f *FaultConfig) Validate() error {
	return f.FaultParams.Validate()
}
