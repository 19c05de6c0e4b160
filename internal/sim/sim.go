// Package sim provides a deterministic virtual-time simulation engine for
// multicomputer models.
//
// A simulation consists of a set of processes (one per simulated processor),
// each a coroutine that runs ordinary Go code. Every process owns a local
// virtual clock, advanced explicitly by Charge. Processes communicate only by
// posting timestamped messages into each other's mailboxes.
//
// The engine switches processes as coroutines: it resumes a process's
// coroutine and gets control back when the process yields or its body
// returns. A resume/yield pair is a direct switch between two goroutines
// that never enters the Go scheduler, so no host thread is woken or parked
// per simulated hand-off. A panic in a process body surfaces in the
// goroutine that resumed it and from there reaches Run's caller.
//
// One conservative engine type drives the processes, and its worker count W
// picks how (see Engine). At W = 1 (NewEngine, the Sequential kind, or a
// parallel engine that resolves to one worker) it executes exactly one
// process at a time, always the one with the smallest (wake, id) key in an
// indexed min-heap: a decision is O(log P) and one coroutine switch each way
// (none when the yielding process is still the earliest). At W ≥ 2
// (NewParallel) it shards the processes over W workers, runs every process
// whose next event falls inside the lookahead window truly in parallel with
// the rest of its window, lets idle workers steal from the heaviest shard,
// and min-reduces the W shard minima into the next window, never scanning
// all P processes.
//
// Determinism across worker counts rests on one rule: mailbox delivery is
// ordered by (arrival time, sender id, per-sender sequence number), which is
// a total order fixed by the programs themselves, independent of the
// real-time order in which sends happened to execute. Because a process's
// clock advances only by the work it charges, and because messages are
// delivered no earlier than their send time plus a non-negative delay, no
// process can ever observe a message from its own future at any W.
//
// Processes yield control to the engine only at Poll and WaitMessage. To keep
// switches rare, the engine gives each resumed process a horizon: its
// window's frontier, or, for a process that runs alone (every W = 1 dispatch,
// a singleton window), the smallest wake-up time of any other process plus
// the lookahead (NewEngine is lookahead 0). Until the process's clock crosses
// the horizon, polling and waiting are serviced locally without a context
// switch; nothing that is not already in its mailbox can arrive below it.
//
// # Host-performance contract
//
// The message path is allocation-free in steady state: Poll and WaitMessage
// return a per-process buffer that is reused by the next Poll/WaitMessage on
// the same process. Callers that retain messages across polls must copy them
// first (the fm layer dispatches synchronously and never retains). The
// engine seeds every process's mailbox ring, overflow heap and drain buffer
// from one message slab at its first Run (see seedBuffers), so the first
// messages of a run allocate nothing either, and Reset keeps those buffers
// for the next Run. At W = 1 exactly one goroutine runs at a time, so
// processes skip the mailbox mutex entirely; only windows (strict mode) pay
// for locking.
package sim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Time is virtual time measured in processor cycles.
type Time int64

// Forever is a sentinel wake-up time for processes blocked with no pending
// messages.
const Forever Time = 1 << 62

// Category classifies charged cycles so that higher layers can report
// execution-time breakdowns (local computation vs. communication overhead
// vs. idle time, as in the paper's figures).
type Category uint8

const (
	// Compute is useful local computation (force evaluation, traversal
	// tests, expansion arithmetic, ...).
	Compute Category = iota
	// SendOv is processor overhead for injecting a message.
	SendOv
	// RecvOv is processor overhead for extracting a message.
	RecvOv
	// PollOv is the cost of checking for incoming messages.
	PollOv
	// HandlerOv is the cost of dispatching a message handler.
	HandlerOv
	// HashOv is hash-table lookup cost (the software-caching runtime pays
	// this on every global access).
	HashOv
	// SchedOv is thread creation/scheduling overhead in the runtimes.
	SchedOv
	// MemOv is modeled memory-system cost (cache hits/misses on object
	// access).
	MemOv
	// Idle is time spent with no local work, waiting for messages.
	Idle
	// Stall is time lost to injected transient node stalls (fault
	// injection; see FaultParams.StallRate).
	Stall
	// FetchStall is idle time spent blocked on outstanding remote fetches,
	// as opposed to structural idle (barriers, load imbalance). Runtimes
	// select it around their drain loops via Proc.SetIdleCategory; all
	// reporting folds it back into idle, so it refines attribution without
	// changing any printed total.
	FetchStall
	// NumCategories is the number of charge categories.
	NumCategories
)

// String returns a short human-readable name for the category.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case SendOv:
		return "send"
	case RecvOv:
		return "recv"
	case PollOv:
		return "poll"
	case HandlerOv:
		return "handler"
	case HashOv:
		return "hash"
	case SchedOv:
		return "sched"
	case MemOv:
		return "mem"
	case Idle:
		return "idle"
	case Stall:
		return "stall"
	case FetchStall:
		return "fetchstall"
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// EngineKind selects how many workers an engine runs on.
type EngineKind uint8

const (
	// Sequential is one worker, one process at a time (the default); it
	// ignores the tuning's worker count.
	Sequential EngineKind = iota
	// Parallel runs on the tuning's worker count: at two or more,
	// lookahead windows on real goroutines, synchronized by barriers.
	Parallel
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	}
	return fmt.Sprintf("engine(%d)", uint8(k))
}

// ErrDeadlock is the sentinel matched by errors.Is for engine deadlocks.
var ErrDeadlock = &deadlockSentinel{}

type deadlockSentinel struct{}

func (*deadlockSentinel) Error() string { return "sim: deadlock" }

// DeadlockError reports that every live process was blocked with no pending
// messages. Under fault injection this is an expected failure mode (e.g. a
// reply lost with no reliability layer); without faults it indicates a
// program bug, and callers are expected to escalate it.
type DeadlockError struct {
	// Detail is a per-process state snapshot for diagnostics.
	Detail string
}

func (e *DeadlockError) Error() string {
	return "sim: deadlock — all processes blocked with no pending messages " + e.Detail
}

// Unwrap makes errors.Is(err, ErrDeadlock) true.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// Message is a timestamped message in a process mailbox. The engine does not
// interpret Handler or Payload; higher layers (the fm package) define them.
type Message struct {
	Arrival Time
	seq     uint64 // per-sender send order, for deterministic tie-breaking
	From    int
	Handler int
	Payload any
	Bytes   int
}

type procState uint8

const (
	stateReady   procState = iota // wants to run at wake
	stateBlocked                  // waiting for a message
	stateRunning
	stateDone
)

// Proc is a simulated process. All methods must be called from the process's
// own body (the function passed to Engine.Spawn), never from outside.
//
// The field layout is deliberate: the first group is written only by the
// process's own coroutine while it runs (the Charge/Poll hot path), the
// second group is also written by message senders and by window workers. A
// cache-line pad separates the groups so cross-process posts do not
// invalidate the owner's hot lines in parallel windows.
type Proc struct {
	id      int
	sched   *Engine
	clock   Time
	horizon Time // local-service bound, set at resume
	// frontier is the bound enforced on cross-process posts (the lookahead
	// contract): the window's frontier at admission, or the clock at resume
	// plus the lookahead at W = 1. The horizon may lie beyond it (a lone
	// runner's reach) or below it (an armed checkpoint's clamp).
	frontier Time
	// strict is the locking mode, set at Run: only windows (W ≥ 2) have
	// concurrent posters, so only they take the mailbox mutex.
	strict   bool
	sendSeq  uint64
	heapIdx  int       // position in a wake heap (-1 when popped)
	shard    int32     // owning worker shard (fixed at Run)
	drainBuf []Message // reusable Poll/WaitMessage result buffer
	charges  [NumCategories]Time
	idleCat  Category // category charged for idle waits (default Idle)

	// onCharge, when set, observes every clock advance as
	// (category, start, end) — the hook behind activity timelines.
	onCharge func(Category, Time, Time)

	_ [64]byte // shield the owner's hot fields from cross-process traffic

	mu      sync.Mutex
	mailbox mailbox // guarded by mu in strict mode
	// mailN mirrors the mailbox size in strict mode so the owner's
	// empty-mailbox checks (the common case on the poll path) are a single
	// atomic load instead of a mutex acquisition. A message missed by the
	// race window is a concurrent cross-process post, whose arrival lies at
	// or beyond the window's frontier by the lookahead contract — never
	// pollable in this window anyway.
	mailN atomic.Int32
	state procState // guarded by mu while other procs may run
	wake  Time      // guarded by mu while other procs may run
	// co runs the body: resumed by the engine, paused by yield, and kept
	// across runs until Close.
	co *coro
}

// respawn gives a new or completed process the state a run starts from, on
// fn: every per-run field at its initial value, the mailbox and drain buffer
// emptied in time proportional to what they still hold, and fn installed on
// its coroutine (a new one only for a process without one: new, or closed).
// Engine.Reset hands completed processes back through it.
func (p *Proc) respawn(fn func(p *Proc)) {
	p.mailbox.reset()
	clear(p.drainBuf)
	p.drainBuf = p.drainBuf[:0]
	p.clock, p.horizon, p.frontier = 0, 0, 0
	p.sendSeq = 0
	p.charges = [NumCategories]Time{}
	p.idleCat = Idle
	p.onCharge = nil
	p.mailN.Store(0)
	p.state, p.wake = stateReady, 0
	if p.co == nil {
		p.co = newCoro(p, fn)
	} else {
		p.co.start(p, fn)
	}
}

// run resumes the process until it next yields and reports whether it is
// still live; a process whose body returned is marked done. The engine calls
// it on a prepped process; a panic in the body propagates to the caller.
func (p *Proc) run() bool {
	if p.co.resume() {
		return true
	}
	p.lockStrict()
	p.state = stateDone
	p.unlockStrict()
	return false
}

// lockStrict takes the mailbox mutex in strict mode only. At W = 1 one
// goroutine runs at a time by construction, so processes never contend and
// skip the lock.
func (p *Proc) lockStrict() {
	if p.strict {
		p.mu.Lock()
	}
}

func (p *Proc) unlockStrict() {
	if p.strict {
		p.mu.Unlock()
	}
}

// SetChargeHook installs an observer for every clock advance (including
// idle waits). Pass nil to disable. Must be set before the process runs.
func (p *Proc) SetChargeHook(fn func(cat Category, start, end Time)) {
	p.onCharge = fn
}

// SetIdleCategory selects the category charged for idle waits (WaitMessage,
// WaitMessageUntil, and blocked-wakeup catch-up): Idle by default, or
// FetchStall while a runtime is draining outstanding fetches. The category
// applies to waits the process itself enters, so it is always set and read by
// the owning process (the engine's catch-up happens while the process is
// parked, after its last write).
func (p *Proc) SetIdleCategory(cat Category) { p.idleCat = cat }

// ID returns the process id (0-based).
func (p *Proc) ID() int { return p.id }

// Now returns the process's local virtual time.
func (p *Proc) Now() Time { return p.clock }

// Charge advances the local clock by d cycles, attributing them to cat.
// Charging never yields control.
func (p *Proc) Charge(cat Category, d Time) {
	if d < 0 {
		panic("sim: negative charge")
	}
	start := p.clock
	p.clock += d
	p.charges[cat] += d
	if p.onCharge != nil && d > 0 {
		p.onCharge(cat, start, p.clock)
	}
}

// Charges returns the per-category cycle totals accumulated so far.
func (p *Proc) Charges() [NumCategories]Time { return p.charges }

// Post inserts a message into the mailbox of process dst with the given
// arrival time. Arrival must be >= the sender's current clock; cross-process
// arrivals must additionally respect the engine's lookahead (arrival >= the
// sender's frontier: its window's frontier, or at W = 1 the clock at its last
// resume plus the lookahead), which holds by
// construction for any machine model whose per-message delay is at least the
// lookahead. Post never yields; the engine notices the new message the next
// time it schedules.
func (p *Proc) Post(dst int, m Message) {
	if m.Arrival < p.clock {
		panic(fmt.Sprintf("sim: message arrival %d before sender clock %d", m.Arrival, p.clock))
	}
	if dst != p.id && m.Arrival < p.frontier {
		panic(fmt.Sprintf("sim: lookahead violation — message from %d to %d arrives at %d, before epoch frontier %d",
			p.id, dst, m.Arrival, p.frontier))
	}
	m.seq = p.sendSeq
	m.From = p.id
	p.sendSeq++
	q := p.sched.procs[dst]
	if q.strict {
		low := false
		q.mu.Lock()
		q.mailbox.push(m)
		q.mailN.Store(int32(q.mailbox.size()))
		if q.state == stateBlocked && m.Arrival < q.wake {
			q.wake = m.Arrival
			low = true
		}
		q.mu.Unlock()
		if low {
			// Decrease-key note, recorded outside q's mutex (shard mutexes
			// are leaves in the lock order). The fold cannot run
			// concurrently — this poster has not parked yet.
			p.sched.lowered(q)
		}
	} else {
		q.mailbox.push(m)
		if q.state == stateBlocked && m.Arrival < q.wake {
			q.wake = m.Arrival
			p.sched.shards[0].heap.up(q.heapIdx) // W = 1: decrease-key at once
		}
	}
	// The receiver wakes at the arrival, and nothing it or anyone it wakes
	// sends can land before arrival + lookahead: our horizon must not reach
	// past that. (A window's arrivals are at or beyond its frontier already;
	// this only ever binds on a lone runner's reach.)
	if la := p.sched.lookahead; dst != p.id && m.Arrival+la < p.horizon {
		p.horizon = m.Arrival + la
	}
}

// Poll returns (removing) all messages whose arrival time is <= the current
// clock, in delivery order. If the clock has crossed the scheduling horizon,
// Poll first yields so that other processes with earlier clocks can run.
// Poll itself charges nothing; callers charge poll cost explicitly.
//
// The returned slice is the process's reusable drain buffer: it is valid
// only until the next Poll or WaitMessage on this process. Callers that
// retain messages across polls must copy them out first.
func (p *Proc) Poll() []Message {
	if p.clock >= p.horizon {
		p.yield(stateReady, p.clock)
	}
	return p.drain()
}

// HasMessage reports whether a message has already arrived (arrival <= now).
func (p *Proc) HasMessage() bool {
	if p.clock >= p.horizon {
		p.yield(stateReady, p.clock)
	}
	a, ok := p.peekMail()
	return ok && a <= p.clock
}

// peekMail reads the earliest pending arrival. In strict mode the empty case is answered by the atomic mirror alone (see mailN); only a
// non-empty mailbox pays for the lock.
func (p *Proc) peekMail() (Time, bool) {
	if !p.strict {
		return p.mailbox.peekArrival()
	}
	if p.mailN.Load() == 0 {
		return 0, false
	}
	p.mu.Lock()
	a, ok := p.mailbox.peekArrival()
	p.mu.Unlock()
	return a, ok
}

// WaitMessage blocks until at least one message has arrived, advancing the
// local clock to the arrival time and charging the advance as Idle. It then
// returns the arrived messages (like Poll, in the same reusable buffer). If
// a message has already arrived it returns immediately without idling.
func (p *Proc) WaitMessage() []Message {
	for {
		at, ok := p.peekMail()
		if ok {
			if at <= p.clock {
				if p.clock >= p.horizon {
					p.yield(stateReady, p.clock)
				}
				return p.drain()
			}
			// The earliest pending message is in our future. If it is
			// strictly inside the horizon, nothing can arrive before it:
			// just advance.
			if at < p.horizon {
				p.advanceIdle(at)
				return p.drain()
			}
		}
		p.yield(stateBlocked, Forever)
	}
}

// WaitMessageUntil is WaitMessage with a virtual-time deadline: it blocks
// until a message has arrived or the local clock reaches deadline, whichever
// comes first, charging the wait as Idle. On timeout it returns whatever has
// arrived (usually nil). The reliability layer uses it to bound waits by the
// next retransmission deadline.
//
// The result is the same reusable drain buffer as Poll/WaitMessage.
func (p *Proc) WaitMessageUntil(deadline Time) []Message {
	for {
		at, ok := p.peekMail()
		if ok && at <= p.clock {
			if p.clock >= p.horizon {
				p.yield(stateReady, p.clock)
			}
			return p.drain()
		}
		if p.clock >= deadline {
			// Timed out (or called past the deadline) with nothing
			// deliverable; drain folds in anything that arrived during a
			// final yield.
			if p.clock >= p.horizon {
				p.yield(stateReady, p.clock)
			}
			return p.drain()
		}
		target := deadline
		if ok && at < target {
			target = at
		}
		// Local idle-advance mirrors WaitMessage: allowed strictly inside
		// the horizon. A target equal to the horizon must yield instead —
		// another process may still run, or post to us, at that time.
		if target < p.horizon {
			p.advanceIdle(target)
			if target == at {
				return p.drain()
			}
			continue // reached the deadline; loop exits via the timeout path
		}
		p.yield(stateBlocked, target)
	}
}

// drain removes and returns all messages with arrival <= clock, reusing the
// process's drain buffer. The empty-mailbox fast path returns nil under a
// single lock acquisition (none at all at W = 1), so
// HasMessage → Poll sequences do not pay twice.
func (p *Proc) drain() []Message {
	if p.strict && p.mailN.Load() == 0 {
		return nil
	}
	p.lockStrict()
	a, ok := p.mailbox.peekArrival()
	if !ok || a > p.clock {
		p.unlockStrict()
		return nil
	}
	out := p.drainBuf[:0]
	for ok && a <= p.clock {
		out = append(out, p.mailbox.pop())
		a, ok = p.mailbox.peekArrival()
	}
	p.drainBuf = out
	if p.strict {
		p.mailN.Store(int32(p.mailbox.size()))
	}
	p.unlockStrict()
	return out
}

// yield transfers control to the engine. For stateReady, wake is the time at
// which the process wants to continue; for stateBlocked the engine computes
// the wake time from the mailbox. At W = 1 a process that is still the
// earliest keeps running without a switch.
func (p *Proc) yield(s procState, wake Time) {
	p.lockStrict()
	p.state = s
	p.wake = wake
	if s == stateBlocked {
		if a, ok := p.mailbox.peekArrival(); ok && a < p.wake {
			p.wake = a
		}
	}
	p.unlockStrict()
	if p.sched.park(p) {
		return
	}
	p.co.pause()
}

// catchUp advances a parked process's clock to its wake time, charging the
// gap as Idle (a blocked process woken by a message arrival).
func (p *Proc) catchUp() {
	p.advanceIdle(p.wake)
}

// advanceIdle is the single path for idle clock advances: it moves the clock
// forward to `to`, charging the gap to the process's idle category and
// reporting it to the charge hook. Keeping every idle advance on this one
// path guarantees observers see the complete idle record regardless of which
// wait primitive (or engine) produced it.
func (p *Proc) advanceIdle(to Time) {
	if to <= p.clock {
		return
	}
	p.charges[p.idleCat] += to - p.clock
	if p.onCharge != nil {
		p.onCharge(p.idleCat, p.clock, to)
	}
	p.clock = to
}

// makespan returns the largest final clock across processes.
func makespan(procs []*Proc) Time {
	var m Time
	for _, p := range procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// describe summarizes process states for deadlock diagnostics. Processes are
// visited in id order (no sort needed); each one's mailbox is read under its
// own mutex, since a windowed deadlock report races only against parked
// workers but a consistent snapshot is still worth one uncontended lock per
// process. Only simulated state is named, so a run that deadlocks reports
// the same text at every worker count: a finished process's stale wake time
// is engine bookkeeping.
func describe(procs []*Proc) string {
	var b strings.Builder
	for _, p := range procs {
		p.mu.Lock()
		fmt.Fprintf(&b, "[proc %d clock=%d state=%d mail=%d]",
			p.id, p.clock, p.state, p.mailbox.size())
		p.mu.Unlock()
	}
	return b.String()
}
