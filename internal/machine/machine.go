// Package machine models a distributed-memory multicomputer in the style of
// the CRAY T3D: a set of processing nodes connected by a 3D torus, with
// explicit per-operation cycle costs. It wraps the sim engine with a Node
// façade used by the messaging layer and the runtimes.
//
// All costs are in processor cycles. The defaults are calibrated to the T3D
// as used by the paper: 150 MHz Alpha 21064 nodes running Illinois Fast
// Messages, whose dominant costs are per-message processor overheads of a
// few hundred cycles rather than raw wire bandwidth.
package machine

import (
	"fmt"
	"math/bits"

	"dpa/internal/obs"
	"dpa/internal/sim"
)

// Config describes the simulated machine.
type Config struct {
	// Nodes is the number of processing nodes.
	Nodes int
	// Torus is the 3D torus shape; the product must be >= Nodes. If zero it
	// is derived from Nodes.
	Torus [3]int

	// ClockHz converts cycles to seconds for reporting (T3D: 150 MHz).
	ClockHz float64

	// SendOverhead is processor cycles to inject one message.
	SendOverhead sim.Time
	// RecvOverhead is processor cycles to extract one message at a poll.
	RecvOverhead sim.Time
	// PollCost is the cost of one poll operation (even if empty).
	PollCost sim.Time
	// HandlerCost is the dispatch cost of running a message handler.
	HandlerCost sim.Time
	// LatencyBase is the network transit latency excluding hops.
	LatencyBase sim.Time
	// LatencyPerHop is added per torus hop between sender and receiver.
	LatencyPerHop sim.Time
	// BytesPerCycle is network bandwidth (payload bytes per cycle).
	BytesPerCycle float64

	// CacheLines is the number of lines of each node's direct-mapped data
	// cache, one object per line, rounded up to a power of two (0 means one
	// line; at most 65,536).
	CacheLines int
	// CacheHit is the access cost for an object its line still holds.
	CacheHit sim.Time
	// CacheMiss is the access cost for any other object.
	CacheMiss sim.Time
	// HashCost is one hash-table probe (paid per access by the software
	// caching runtime).
	HashCost sim.Time

	// TraceBins, when positive, enables activity-timeline recording with
	// the given bin width in cycles (see Timeline); every Run records into
	// a timeline of its own.
	TraceBins sim.Time

	// Obs, when non-nil, attaches the structured observability tracer: per
	// node, coalesced charge spans plus discrete events from the messaging
	// and runtime layers. The tracer's node count must equal Nodes. A single
	// tracer may span several machines run back to back (multi-phase runs);
	// each Run advances its phase offset by the phase makespan.
	Obs *obs.Tracer

	// Engine selects the simulation engine (sim.Sequential, the zero value,
	// or sim.Parallel). Both produce bit-identical results; the parallel
	// engine runs simulated nodes on real goroutines across worker shards,
	// synchronized by conservative lookahead windows derived from the
	// machine's minimum message delay.
	Engine sim.EngineKind

	// EngineTuning carries the parallel engine's worker count. The zero
	// value means the default; the sequential engine ignores it (and
	// Validate does not check it then). It never affects simulation
	// results — only host execution.
	EngineTuning sim.Tuning

	// Faults configures deterministic fault injection and the fm
	// reliability protocol. The zero value disables both, leaving every
	// result bit-identical to a fault-free machine.
	Faults FaultConfig

	// Checkpoint, when non-nil, arms a deterministic checkpoint (or restore
	// verification) spanning the phases run with this config; the spec is a
	// cross-phase cursor like Obs's phase offset: set the same spec on
	// every phase. The driver resolves which phase the boundary falls in,
	// performs the capture and, in verify mode, also records a divergence
	// on the run's error chain.
	Checkpoint *CheckpointSpec
}

// Lookahead returns the machine's minimum cross-node message delay in
// cycles: every send charges SendOverhead before the message departs, and
// every message spends at least LatencyBase in the network. This is the
// conservative synchronization window of the parallel engine.
func (c *Config) Lookahead() sim.Time { return c.SendOverhead + c.LatencyBase }

// DefaultT3D returns a T3D-like configuration for the given node count.
//
// Rationale for the values: the T3D ran 150 MHz Alpha 21064 processors
// (8 KB direct-mapped L1, no L2). Illinois FM on the T3D had one-way
// latencies of several microseconds dominated by processor overhead at both
// ends; we charge ~2.7 us to inject and ~1.7 us to extract a message. The
// torus network itself was fast relative to software overheads
// (~1-2 cycles/hop, >100 MB/s links).
func DefaultT3D(nodes int) Config {
	return Config{
		Nodes:         nodes,
		ClockHz:       150e6,
		SendOverhead:  400, // ~2.7 us of processor time per injection
		RecvOverhead:  250,
		PollCost:      25,
		HandlerCost:   120,
		LatencyBase:   150,
		LatencyPerHop: 2,
		BytesPerCycle: 1.0, // ~150 MB/s at 150 MHz
		CacheLines:    256, // 8 KB L1 / ~32 B lines, in object units
		CacheHit:      2,
		CacheMiss:     30,
		HashCost:      45,
	}
}

// Validate fills derived fields and checks invariants.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("machine: Nodes = %d, must be positive", c.Nodes)
	}
	if c.Torus == [3]int{} {
		c.Torus = deriveTorus(c.Nodes)
	}
	if c.Torus[0]*c.Torus[1]*c.Torus[2] < c.Nodes {
		return fmt.Errorf("machine: torus %v too small for %d nodes", c.Torus, c.Nodes)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("machine: BytesPerCycle must be positive")
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("machine: ClockHz must be positive")
	}
	if c.SendOverhead < 0 || c.RecvOverhead < 0 || c.PollCost < 0 || c.HandlerCost < 0 ||
		c.LatencyBase < 0 || c.LatencyPerHop < 0 || c.CacheHit < 0 || c.CacheMiss < 0 || c.HashCost < 0 {
		return fmt.Errorf("machine: per-operation costs must be non-negative")
	}
	if c.CacheLines < 0 || c.CacheLines > maxCacheLines {
		return fmt.Errorf("machine: CacheLines = %d, must be in [0, %d]", c.CacheLines, maxCacheLines)
	}
	if c.Obs != nil && c.Obs.Nodes() != c.Nodes {
		return fmt.Errorf("machine: Obs tracer built for %d nodes, machine has %d", c.Obs.Nodes(), c.Nodes)
	}
	if c.Engine == sim.Parallel {
		if c.Lookahead() <= 0 {
			return fmt.Errorf("machine: parallel engine requires SendOverhead+LatencyBase > 0 (lookahead = %d)", c.Lookahead())
		}
		// The worker count is checked here with a typed error
		// (*sim.TuningError, errors.Is-matchable via sim.ErrBadTuning), so
		// a bad one is rejected at configuration time instead of panicking
		// inside internal/sim. Nodes is the process count: one simulated
		// process per node.
		if err := c.EngineTuning.Validate(c.Nodes); err != nil {
			return err
		}
	}
	if err := c.Checkpoint.validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// maxCacheLines bounds Config.CacheLines: every node's tags come from one
// slab of Nodes × lines words, so the cap keeps a config from asking for
// gigabytes (512 KB of tags per node at the cap).
const maxCacheLines = 1 << 16

// deriveTorus picks a roughly-cubic torus shape for n nodes.
func deriveTorus(n int) [3]int {
	dims := [3]int{1, 1, 1}
	d := 0
	for dims[0]*dims[1]*dims[2] < n {
		dims[d] *= 2
		d = (d + 1) % 3
	}
	return dims
}

// Hops returns the minimal torus hop count between nodes a and b.
func (c *Config) Hops(a, b int) int {
	if a == b {
		return 0
	}
	ax, ay, az := coords(a, c.Torus)
	bx, by, bz := coords(b, c.Torus)
	return torusDist(ax, bx, c.Torus[0]) + torusDist(ay, by, c.Torus[1]) + torusDist(az, bz, c.Torus[2])
}

func coords(n int, t [3]int) (x, y, z int) {
	x = n % t[0]
	y = (n / t[0]) % t[1]
	z = n / (t[0] * t[1])
	return
}

func torusDist(a, b, dim int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if dim-d < d {
		d = dim - d
	}
	return d
}

// TransitTime returns network transit latency (excluding endpoint overheads)
// for a message of the given size between two nodes.
func (c *Config) TransitTime(from, to, bytes int) sim.Time {
	t := c.LatencyBase + sim.Time(c.Hops(from, to))*c.LatencyPerHop
	t += sim.Time(float64(bytes) / c.BytesPerCycle)
	return t
}

// Seconds converts virtual cycles to seconds under this config's clock.
func (c Config) Seconds(t sim.Time) float64 { return float64(t) / c.ClockHz }

// Machine is a configured multicomputer that runs one SPMD program per Run.
// A multi-phase application runs its phases on one Machine: each Run starts
// the machine afresh in virtual time and reuses the storage the previous Run
// built (see Run). Close ends the last run.
//
// Each node's process, with its coroutine, lives from the first Run to
// Close, so a machine that is dropped without Close keeps one parked
// goroutine per node (its stack, not the machine's storage) for the life of
// the program.
type Machine struct {
	Cfg   Config
	eng   *sim.Engine
	nodes []*Node
	trace *Timeline
	// main is the program the current Run executes; every node's process
	// body (Node.run) calls it.
	main func(n *Node)
	// bodies holds each node's bound Node.run, made with the node slab:
	// the process body every Run spawns.
	bodies []func(p *sim.Proc)
	// plan draws the deterministic fault schedule; nil when no faults are
	// injected (the hot-path test).
	plan *sim.FaultPlan
}

// New creates a machine.
//
// Panic contract (intentional): New panics on an invalid configuration.
// Configs reach New through our own code paths (DefaultT3D plus field
// tweaks, or the driver, which validates specs up front), so a rejected
// config here is a programming bug, not an input error — fail loudly at the
// construction site rather than propagating an error through every caller.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng, err := newEngine(cfg.Engine, cfg.Lookahead(), cfg.EngineTuning)
	if err != nil {
		// Unreachable after Validate, which checks the same tuning bounds.
		panic(err)
	}
	return &Machine{
		Cfg:  cfg,
		eng:  eng,
		plan: sim.NewFaultPlan(cfg.Faults.FaultParams),
	}
}

// newEngine builds every machine's engine. It is a variable so that this
// package's tests can run a model under an engine its Config cannot ask for
// (the sequential engine without the model's lookahead).
var newEngine = sim.NewEngineWith

// Run executes main on every node (SPMD) and returns the makespan in cycles.
//
// Run may be called once per phase. Every call starts a fresh machine in
// virtual time: clocks and charges at 0, mailboxes empty, message, cache and
// fault counters zeroed, fault-draw cursors rewound, crash times re-applied
// from the fault plan, a new activity timeline when tracing is on, and an
// empty data cache. What it keeps from the previous call is storage only —
// the Node structs and the slab every node's cache tags are cut from (both
// made by the first Run), each node's process and its coroutine, each
// process's mailbox ring, overflow heap and drain buffer, and the engine's
// heap or shards — so a phase computes exactly what it would on a new
// Machine. A node's tags are emptied at its first Touch of the phase, so an
// idle node pays nothing for its cache. Call Close after the last Run.
// Results of an earlier Run (Nodes, Trace, WorkerStats) are overwritten by
// the next; collect them first.
//
// A non-nil error is the engine's: a *sim.DeadlockError when every node
// blocked with no pending messages. Under fault injection that is a
// reachable outcome (e.g. loss beyond what the retry budget recovers), so it
// is returned rather than panicking; the per-node statistics remain valid up
// to the deadlock point. A deadlocked run leaves its processes parked, so a
// Machine that returned an error (or whose Run panicked) must not be run
// again: the next Run panics in the engine's Reset.
func (m *Machine) Run(main func(n *Node)) (sim.Time, error) {
	if m.nodes == nil {
		slab := make([]Node, m.Cfg.Nodes)
		m.nodes = make([]*Node, m.Cfg.Nodes)
		m.bodies = make([]func(p *sim.Proc), m.Cfg.Nodes)
		lines := 1 << bits.Len(uint(max(m.Cfg.CacheLines, 1)-1))
		tags, shift := make([]uint64, m.Cfg.Nodes*lines), uint8(bits.LeadingZeros64(uint64(lines-1)))
		for i := range slab {
			m.nodes[i] = &slab[i]
			m.bodies[i] = slab[i].run
			slab[i].cache = dataCache{tags: tags[i*lines : (i+1)*lines : (i+1)*lines], shift: shift}
		}
	} else {
		m.eng.Reset()
	}
	m.main = main
	if m.Cfg.TraceBins > 0 {
		m.trace = newTimeline(m.Cfg.TraceBins, m.Cfg.Nodes)
	}
	for i, n := range m.nodes {
		n.reset(m, i)
		if m.Cfg.Obs != nil {
			n.trc = m.Cfg.Obs.Attach(i)
		}
		if m.plan != nil {
			if at, doomed := m.plan.CrashTime(i); doomed {
				n.crashAt = at
			}
		}
		p := m.eng.Spawn(m.bodies[i])
		n.proc = p
		if m.trace != nil || n.trc != nil {
			id, trc, tl := i, n.trc, m.trace
			p.SetChargeHook(func(cat sim.Category, start, end sim.Time) {
				if tl != nil {
					tl.record(id, cat, start, end)
				}
				if trc != nil {
					trc.Span(cat, start, end)
				}
			})
		}
	}
	makespan, err := m.eng.Run()
	if m.Cfg.Obs != nil {
		m.Cfg.Obs.EndPhase(makespan)
	}
	return makespan, err
}

// Close ends the machine's last run: the coroutine of every node not inside
// its program returns. A node left inside its program by a deadlocked or
// panicked Run stays parked. The results of the last Run stay readable, and
// a later Run still works, on new coroutines.
func (m *Machine) Close() { m.eng.Close() }

// Nodes returns the machine's nodes after Run (for stats collection).
func (m *Machine) Nodes() []*Node { return m.nodes }

// WorkerStats returns the engine's per-worker host scheduling counters after
// Run: one row per worker, a single row (all nodes, every resume) at one
// worker. Rows of two or more workers reflect host timing (steal races), not
// virtual time, so the counters are excluded from all deterministic result
// comparisons.
func (m *Machine) WorkerStats() []sim.WorkerStats { return m.eng.WorkerStats() }

// EngineWindows returns the engine's window count after Run: 0 at one
// worker, whatever the engine kind. Unlike WorkerStats, the count is a pure
// function of virtual time, identical at every worker count of two or more.
func (m *Machine) EngineWindows() int64 { return m.eng.Windows() }

// Node is one simulated processor with its network interface and local
// memory system model. All methods must be called from the node's own
// program (the SPMD main function).
type Node struct {
	mach  *Machine
	id    int
	proc  *sim.Proc
	cache dataCache
	// trc is the node's observability handle; nil unless Config.Obs is set,
	// so the disabled path costs one nil check per emission site.
	trc *obs.NodeTrace

	// Message accounting.
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64

	// Data-cache model accounting.
	CacheHits   int64
	CacheMisses int64

	// Fault-injection accounting (what the fault plan did to this node's
	// outgoing messages and its polls).
	FaultDrops  int64 // messages silently lost
	FaultDups   int64 // messages delivered twice
	FaultJitter int64 // messages delayed beyond nominal transit
	FaultStalls int64 // transient stalls injected at network checks

	// Deterministic fault-draw counters: faultSeq advances per
	// fault-eligible send, stallSeq per network check, both in the node's
	// program order — the (seed, sender, seq) key of the fault PRNG.
	faultSeq uint64
	stallSeq uint64

	// Permanent-crash state (see FaultParams.CrashRate/CrashAt): crashAt is
	// the scheduled crash time resolved from the fault plan at Run (0 = the
	// node survives); Crashed/CrashedAt record the crash once it takes
	// effect at a network check.
	crashAt   sim.Time
	Crashed   bool
	CrashedAt sim.Time
}

// reset gives the node the state Run starts every phase from, keeping its
// cache tags, which the phase's first Touch empties.
func (n *Node) reset(m *Machine, id int) {
	*n = Node{mach: m, id: id, cache: dataCache{tags: n.cache.tags, shift: n.cache.shift, stale: true}}
}

// run is the node's process body: the machine's current program on this
// node. A doomed node's program unwinds with a crash sentinel at its first
// network check past the crash time; recovering it here ends the body so the
// engine sees a completed process, never a hung one. Any other panic
// propagates.
func (n *Node) run(*sim.Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSentinel); ok {
				return
			}
			panic(r)
		}
	}()
	n.mach.main(n)
}

// ID returns the node id (0-based).
func (n *Node) ID() int { return n.id }

// Obs returns the node's observability handle, nil when tracing is disabled.
// Upper layers (fm, core) cache it and emit their own events through it.
func (n *Node) Obs() *obs.NodeTrace { return n.trc }

// N returns the total number of nodes in the machine.
func (n *Node) N() int { return n.mach.Cfg.Nodes }

// Cfg returns the machine configuration.
func (n *Node) Cfg() *Config { return &n.mach.Cfg }

// Now returns the node's local virtual time.
func (n *Node) Now() sim.Time { return n.proc.Now() }

// Charge advances the node clock, attributing the cycles to cat.
func (n *Node) Charge(cat sim.Category, d sim.Time) { n.proc.Charge(cat, d) }

// SetIdleCategory selects the category charged while this node waits for
// messages (sim.Idle by default, sim.FetchStall inside runtime drain loops).
func (n *Node) SetIdleCategory(cat sim.Category) { n.proc.SetIdleCategory(cat) }

// Charges returns the per-category cycle totals for this node.
func (n *Node) Charges() [sim.NumCategories]sim.Time { return n.proc.Charges() }

// Send transmits a message to node dst. It charges the send overhead plus
// serialization (bytes/bandwidth share of injection) to the sender, and
// schedules arrival after network transit. The receiver pays its own
// overhead when it polls.
//
// Send is subject to fault injection: under a fault plan the message may be
// dropped, duplicated, or delayed (jitter). Jitter and duplication only add
// delay beyond the nominal transit time, so they respect the parallel
// engine's lookahead contract.
func (n *Node) Send(dst, handler int, payload any, bytes int) {
	n.send(dst, handler, payload, bytes, false)
}

// SendControl is Send for control-plane messages (reliability acks): it is
// exempt from drop and duplication so the recovery protocol itself cannot
// livelock, a standard simplification in fault models that target the data
// plane. Jitter still applies — control messages share the network.
func (n *Node) SendControl(dst, handler int, payload any, bytes int) {
	n.send(dst, handler, payload, bytes, true)
}

func (n *Node) send(dst, handler int, payload any, bytes int, control bool) {
	n.checkCrash()
	c := &n.mach.Cfg
	n.proc.Charge(sim.SendOv, c.SendOverhead)
	arrival := n.proc.Now() + c.TransitTime(n.id, dst, bytes)
	msg := sim.Message{Arrival: arrival, Handler: handler, Payload: payload, Bytes: bytes}
	n.MsgsSent++
	n.BytesSent += int64(bytes)
	if plan := n.mach.plan; plan != nil {
		// Every send draws exactly one fate — including control sends,
		// which consume a draw (for jitter) but ignore drop/dup. Keeping
		// the counter in lockstep with program order is what makes the
		// schedule engine-independent.
		fate := plan.Message(n.id, n.faultSeq)
		n.faultSeq++
		if fate.Drop && !control {
			n.FaultDrops++
			if n.trc != nil {
				n.trc.Event(obs.KFault, n.proc.Now(), obs.FaultDrop, int64(dst))
			}
			return
		}
		if fate.Jitter > 0 {
			n.FaultJitter++
			msg.Arrival += fate.Jitter
			if n.trc != nil {
				n.trc.Event(obs.KFault, n.proc.Now(), obs.FaultJitter, int64(fate.Jitter))
			}
		}
		if fate.Dup && !control {
			n.FaultDups++
			if n.trc != nil {
				n.trc.Event(obs.KFault, n.proc.Now(), obs.FaultDup, int64(dst))
			}
			dup := msg
			dup.Arrival = arrival + fate.DupJitter
			n.proc.Post(dst, dup)
		}
	}
	n.proc.Post(dst, msg)
}

// Poll checks the network, charging the poll cost, and returns any arrived
// messages after charging per-message receive overhead. Exactly one
// sim.Proc.Poll is issued per PollCost charged, so the modeled poll cost and
// the engine's scheduling events stay in one-to-one correspondence.
//
// The returned slice is the process's reusable drain buffer: it is valid
// only until the next Poll or WaitMessage on this node. Callers that retain
// messages across polls must copy them out first.
func (n *Node) Poll() []sim.Message {
	c := &n.mach.Cfg
	n.maybeStall()
	n.proc.Charge(sim.PollOv, c.PollCost)
	ms := n.proc.Poll()
	n.account(ms)
	return ms
}

// WaitMessage blocks until a message arrives (idle time), then extracts all
// arrived messages like Poll (including the buffer-reuse rule: the result is
// valid only until the next Poll or WaitMessage on this node).
func (n *Node) WaitMessage() []sim.Message {
	n.maybeStall()
	ms := n.proc.WaitMessage()
	c := &n.mach.Cfg
	n.proc.Charge(sim.PollOv, c.PollCost)
	n.account(ms)
	return ms
}

// WaitMessageUntil is WaitMessage with a virtual-time deadline: it returns
// no later (in virtual time) than deadline, with an empty result if nothing
// arrived. The reliability layer bounds its waits with it so retransmission
// timers fire even when the network has gone silent.
func (n *Node) WaitMessageUntil(deadline sim.Time) []sim.Message {
	n.maybeStall()
	ms := n.proc.WaitMessageUntil(deadline)
	c := &n.mach.Cfg
	n.proc.Charge(sim.PollOv, c.PollCost)
	n.account(ms)
	return ms
}

// maybeStall injects a transient node stall at a network check, drawn from
// the fault plan in program order (see FaultParams.StallRate). It is also
// the poll-side crash point: a doomed node dies here instead of checking
// the network.
func (n *Node) maybeStall() {
	n.checkCrash()
	plan := n.mach.plan
	if plan == nil {
		return
	}
	d := plan.Stall(n.id, n.stallSeq)
	n.stallSeq++
	if d > 0 {
		n.FaultStalls++
		if n.trc != nil {
			n.trc.Event(obs.KFault, n.proc.Now(), obs.FaultStall, int64(d))
		}
		n.proc.Charge(sim.Stall, d)
	}
}

// HasMessage reports whether a message has arrived, without cost.
func (n *Node) HasMessage() bool { return n.proc.HasMessage() }

func (n *Node) account(ms []sim.Message) {
	c := &n.mach.Cfg
	for _, m := range ms {
		n.proc.Charge(sim.RecvOv, c.RecvOverhead)
		n.MsgsRecv++
		n.BytesRecv += int64(m.Bytes)
	}
}

// Touch models a data-cache access to the object identified by key,
// charging CacheHit if the object's line still holds it and CacheMiss
// otherwise. Dynamic pointer alignment's tiling benefit (threads on the same
// object run back to back) manifests through this model.
func (n *Node) Touch(key uint64) {
	c := &n.mach.Cfg
	if n.cache.touch(key) {
		n.CacheHits++
		n.proc.Charge(sim.MemOv, c.CacheHit)
	} else {
		n.CacheMisses++
		n.proc.Charge(sim.MemOv, c.CacheMiss)
	}
}

// dataCache models the node's L1 as the T3D's Alpha 21064 has it: direct
// mapped, one object per line. An object's line is a Fibonacci hash of its
// key, not of an address, because a global pointer carries no object size
// to lay objects out by. A line holds its object's key+1, so 0 is an empty
// line (the all-ones key, which no global pointer is, would always miss).
type dataCache struct {
	tags  []uint64 // this node's lines, cut from the machine's slab
	shift uint8    // 64 - log2(len(tags)): the hash's top bits pick the line
	// stale marks tags holding an earlier Run's keys: the phase's first
	// touch empties them.
	stale bool
}

// touch records an access and reports whether key's line held it.
func (c *dataCache) touch(key uint64) bool {
	if c.stale {
		clear(c.tags)
		c.stale = false
	}
	line := &c.tags[key*0x9E3779B97F4A7C15>>c.shift]
	if *line == key+1 {
		return true
	}
	*line = key + 1
	return false
}
