// Package sim provides a deterministic virtual-time simulation engine for
// multicomputer models.
//
// A simulation consists of a set of processes (one per simulated processor),
// each a coroutine that runs ordinary Go code. Every process owns a local
// virtual clock, advanced explicitly by Charge. Processes communicate only by
// posting timestamped messages into each other's mailboxes.
//
// Both engines switch processes the same way: the engine resumes a process's
// coroutine and gets control back when the process yields or its body
// returns. A resume/yield pair is a direct switch between two goroutines
// that never enters the Go scheduler, so no host thread is woken or parked
// per simulated hand-off. A panic in a process body surfaces in the
// goroutine that resumed it and from there reaches Run's caller.
//
// Two engines drive the processes, both conservative and both producing
// bit-identical results:
//
//   - The sequential engine (NewEngine, or NewEngineWith for one that knows
//     the machine's lookahead) executes exactly one process at a time,
//     always resuming the process with the smallest wake-up time. The
//     schedule lives in an indexed min-heap keyed by (wake, id) and Run is
//     the scheduler loop — the scheduling decision is O(log P) and costs one
//     coroutine switch each way (or none at all, when the yielding process
//     is still the earliest).
//   - The parallel engine (NewParallel) is a sharded work-stealing
//     scheduler: processes are partitioned across W worker shards, each
//     owning its own (wake, id) min-heap and served by one persistent worker
//     goroutine, and every process whose next event falls inside the
//     conservative lookahead window runs truly in parallel with the rest of
//     its window. Idle workers steal runnable processes from the heaviest
//     shard, and every worker turns over its own shard between windows; the
//     last to fold min-reduces the W shard minima into the next horizon,
//     never a stop-the-world scan over all P processes.
//
// Determinism across engines rests on one rule: mailbox delivery is ordered
// by (arrival time, sender id, per-sender sequence number), which is a total
// order fixed by the programs themselves, independent of the real-time order
// in which the engine happened to execute sends. Because a process's clock
// advances only by the work it charges, and because messages are delivered
// no earlier than their send time plus a non-negative delay, no process can
// ever observe a message from its own future under either engine.
//
// Processes yield control to the engine only at Poll and WaitMessage. To keep
// switches rare, the engine gives each resumed process a horizon: under the
// sequential engine the smallest wake-up time of any other process plus the
// engine's lookahead (NewEngine is lookahead 0), under the parallel engine
// the current epoch frontier. Until the process's clock crosses the horizon,
// polling and waiting are serviced locally without a context switch; nothing
// that is not already in its mailbox can arrive below it.
//
// # Host-performance contract
//
// The message path is allocation-free in steady state: Poll and WaitMessage
// return a per-process buffer that is reused by the next Poll/WaitMessage on
// the same process. Callers that retain messages across polls must copy them
// first (the fm layer dispatches synchronously and never retains). Both
// engines seed every process's mailbox ring, overflow heap and drain buffer
// from one message slab at their first Run (see seedBuffers), so the first
// messages of a run allocate nothing either, and Reset keeps those buffers
// for the next Run. The sequential engine runs exactly one
// goroutine at a time by construction and therefore skips the mailbox mutex
// entirely; only the parallel engine (strict mode) pays for locking.
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

// EngineKind selects which engine implementation drives a simulation.
type EngineKind uint8

const (
	// Sequential is the one-process-at-a-time engine (the default).
	Sequential EngineKind = iota
	// Parallel is the conservative lookahead-window engine: processes run
	// on real goroutines, synchronized by barrier epochs.
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

// Engine drives a set of processes to completion in virtual time. Spawn must
// not be called after Run; Run may be called once per Reset.
//
// An engine built with a lookahead (NewEngineWith, NewParallel) holds its
// caller to it under either kind: no cross-process Post may arrive less than
// the lookahead after the sender's clock. Both engines schedule on that
// promise and both check it (see Proc.Post).
type Engine interface {
	// Spawn registers a new process whose body is fn. Processes start at
	// time 0.
	Spawn(fn func(p *Proc)) *Proc
	// Run executes all processes until every one has returned, and returns
	// the makespan: the largest final clock across processes. On deadlock
	// (all processes blocked with empty mailboxes) it returns the makespan
	// so far and a *DeadlockError; the deadlocked process coroutines stay
	// parked and their final statistics remain readable. A panic in a
	// process body panics out of Run with the original value.
	Run() (Time, error)
	// Procs returns the engine's processes (for stats collection after Run).
	Procs() []*Proc
	// CheckpointAt arms a one-shot checkpoint hook for the coming Run: fn
	// runs exactly once, at the first scheduling boundary where every
	// process's next event lies at or beyond at — every virtual-time event
	// before at has executed and none at or beyond it has, with all
	// processes parked. The boundary is a pure function of the simulated
	// programs, so both engines fire with bit-identical process state; the
	// engines clamp their scheduling horizons to at while armed, which
	// changes when processes yield but never what they compute. at must be
	// positive; if the run completes or deadlocks before at, fn never runs
	// and the hook is disarmed. Must be called before Run; fn must not call
	// back into the engine.
	CheckpointAt(at Time, fn func())
	// Reset returns the engine to the state a new engine of the same kind
	// and lookahead starts in, for another round of Spawn and Run. It keeps
	// the storage: the processes the next Spawns hand out are the previous
	// run's, in id order, with their message buffers emptied but not freed,
	// and the engine's own heaps and queues keep their capacity. Each
	// process keeps its coroutine, parked since its body returned, and the
	// next Spawn hands it the new body. Every process must have completed: a
	// deadlocked or panicked run leaves coroutines parked inside their
	// bodies, and Reset panics rather than hand them out.
	Reset()
	// Close ends the engine's last run: the coroutine of every process not
	// inside its body — completed, or spawned and never started — returns,
	// so no goroutine of a clean run outlives it. Call it once the engine
	// will not run again (a later Spawn and Run still work, on new
	// coroutines). A process still inside its body — a deadlocked or
	// panicked run — stays parked.
	Close()
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

// scheduler is the engine-side surface a Proc needs while running.
type scheduler interface {
	// peer resolves a destination process id for Post.
	peer(id int) *Proc
	// park is called by a yielding process after it has recorded its new
	// state and wake time. A true return means the caller itself should
	// keep running (no switch), false means it must pause its coroutine
	// and let its resumer pick what runs next.
	park(p *Proc) bool
	// lowered notifies the engine that a post lowered q's wake time while q
	// was blocked (sequential engine: immediate decrease-key; parallel
	// engine: a note on q's shard, applied at its next fold).
	lowered(q *Proc)
}

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
// second group is also written by message senders and by the parallel
// engine's workers. A cache-line pad separates the groups so cross-process
// posts do not invalidate the owner's hot lines in parallel epochs.
type Proc struct {
	id      int
	sched   scheduler
	clock   Time
	horizon Time // local-service bound, set at resume
	// frontier is the bound enforced on cross-process posts (the lookahead
	// contract): the parallel engine's epoch frontier at admission, the
	// sequential engine's clock-at-resume plus lookahead. The horizon may
	// lie beyond it (second-best wake plus lookahead; a lone runner's
	// extended window) or below it (an armed checkpoint's clamp).
	frontier Time
	// strict is the locking mode: only the parallel engine has concurrent
	// posters, so only it takes the mailbox mutex.
	strict  bool
	sendSeq uint64
	// lookahead is the sequential engine's lookahead: how far past a
	// cross-process post's arrival the sender may still run before anything
	// the receiver sends back can land. 0 under the parallel engine, whose
	// windows already end at the frontier.
	lookahead Time
	heapIdx   int       // position in a wake heap (-1 when popped)
	shard     int32     // owning worker shard under the parallel engine (fixed before Run)
	drainBuf  []Message // reusable Poll/WaitMessage result buffer
	charges   [NumCategories]Time
	idleCat   Category // category charged for idle waits (default Idle)

	// onCharge, when set, observes every clock advance as
	// (category, start, end) — the hook behind activity timelines.
	onCharge func(Category, Time, Time)

	_ [64]byte // shield the owner's hot fields from cross-process traffic

	mu      sync.Mutex
	mailbox mailbox // guarded by mu in strict mode
	// mailN mirrors the mailbox size under the parallel engine so the
	// owner's empty-mailbox checks (the common case on the poll path) are a
	// single atomic load instead of a mutex acquisition. A message missed by
	// the race window is a concurrent cross-process post, whose arrival lies
	// at or beyond the epoch frontier by the lookahead contract — never
	// pollable in this epoch anyway.
	mailN    atomic.Int32
	state    procState // guarded by mu while other procs may run
	wake     Time      // guarded by mu while other procs may run
	epochGen uint64    // last parallel epoch this proc was admitted to
	// co runs the body: resumed by the engine, paused by yield, and kept
	// across runs until Close.
	co *coro
}

// newProc registers a process on s with body fn, parked until the engine's
// first resume.
func newProc(s scheduler, id int, fn func(p *Proc), strict bool) *Proc {
	p := &Proc{id: id, sched: s, strict: strict}
	p.respawn(fn)
	return p
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
	p.epochGen = 0
	if p.co == nil {
		p.co = newCoro(p, fn)
	} else {
		p.co.start(p, fn)
	}
}

// closeProcs is Engine.Close: it stops the coroutine of every process in
// procs' backing array (which after Reset still holds the last run's) that is
// parked outside its body.
func closeProcs(procs []*Proc) {
	for _, p := range procs[:cap(procs)] {
		if p != nil && p.co != nil && p.co.idle() {
			p.co.stop()
			p.co = nil
		}
	}
}

// requireDone is the guard of Reset: every process of the last run must have
// completed.
func requireDone(procs []*Proc) {
	for _, p := range procs {
		if p.state != stateDone {
			panic(fmt.Sprintf("sim: Reset with process %d not completed (state %d): "+
				"a deadlocked or failed run leaves its coroutines parked", p.id, p.state))
		}
	}
}

// recycled is the Spawn side of Reset: the previous run's process with the
// next id, respawned on fn, if procs' backing array still holds one.
func recycled(procs []*Proc, fn func(p *Proc)) *Proc {
	id := len(procs)
	if id >= cap(procs) {
		return nil
	}
	p := procs[:id+1][id]
	if p != nil {
		p.respawn(fn)
	}
	return p
}

// run resumes the process until it next yields and reports whether it is
// still live; a process whose body returned is marked done. Engines call it
// on a prepped process; a panic in the body propagates to the caller.
func (p *Proc) run() bool {
	if p.co.resume() {
		return true
	}
	p.lockStrict()
	p.state = stateDone
	p.unlockStrict()
	return false
}

// lockStrict takes the mailbox mutex under the parallel engine only. The
// sequential engine runs one goroutine at a time by construction, so its
// processes never contend and skip the lock.
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
// the owning process (the engines' catch-up happens while the process is
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
// sender's frontier: the epoch frontier under the parallel engine, the clock
// at its last resume plus lookahead under the sequential one), which holds by
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
	q := p.sched.peer(dst)
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
			p.sched.lowered(q)
		}
	}
	// The receiver wakes at the arrival, and nothing it or anyone it wakes
	// sends can land before arrival + lookahead: our horizon must not reach
	// past that. (A parallel window's arrivals are at or beyond its frontier
	// already; this only ever binds on an extended horizon.)
	if dst != p.id && m.Arrival+p.lookahead < p.horizon {
		p.horizon = m.Arrival + p.lookahead
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

// peekMail reads the earliest pending arrival. Under the parallel engine the
// empty case is answered by the atomic mirror alone (see mailN); only a
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
// single lock acquisition (none at all under the sequential engine), so
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
// the wake time from the mailbox. Under the sequential engine a process that
// is still the earliest keeps running without a switch.
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

// SeqEngine is the sequential engine: exactly one process executes at a
// time, and the engine always resumes the process with the smallest wake-up
// time (ties broken by process id), so simulations are exactly reproducible.
//
// Run is the scheduler loop, on its caller's goroutine: read the wake heap's
// minimum, resume that process's coroutine, and look again once it yields or
// returns. A scheduling event costs one O(log P) heap fix plus one coroutine
// switch each way — and no switch at all when the yielding process is still
// the earliest (see park).
type SeqEngine struct {
	procs []*Proc
	heap  schedHeap
	// lookahead widens every horizon (see prep); 0 for NewEngine.
	lookahead Time
	// resumes counts coroutine switches into a process: a pure function of
	// the programs and the lookahead (host telemetry, never a result).
	resumes int64
	// ckAt/ckFn are the armed one-shot checkpoint hook (see
	// Engine.CheckpointAt); ckFn is nilled once fired.
	ckAt Time
	ckFn func()
}

// NewEngine returns an empty sequential engine with lookahead 0: a resumed
// process's horizon is the bare second-best wake time, and Post accepts any
// arrival at or after the sender's clock.
func NewEngine() *SeqEngine { return &SeqEngine{} }

// Resumes returns how many times Run has switched into a process so far.
func (e *SeqEngine) Resumes() int64 { return e.resumes }

func (e *SeqEngine) peer(id int) *Proc { return e.procs[id] }

// Spawn registers a new process whose body is fn. Processes start at time 0.
// Spawn must be called before Run.
func (e *SeqEngine) Spawn(fn func(p *Proc)) *Proc {
	p := recycled(e.procs, fn)
	if p == nil {
		p = newProc(e, len(e.procs), fn, false)
		p.lookahead = e.lookahead
	}
	e.procs = append(e.procs, p)
	return p
}

// Reset readies the engine for another Spawn/Run round (see Engine.Reset).
func (e *SeqEngine) Reset() {
	requireDone(e.procs)
	e.procs = e.procs[:0] // the backing array keeps the processes for Spawn
	e.resumes = 0
}

// Close ends the engine's last run (see Engine.Close).
func (e *SeqEngine) Close() { closeProcs(e.procs) }

// Run executes all processes until every one has returned. It returns the
// makespan: the largest final clock across processes. On deadlock (all
// processes blocked with empty mailboxes) it returns a *DeadlockError; the
// blocked process coroutines stay parked.
func (e *SeqEngine) Run() (Time, error) {
	defer func() { e.ckFn = nil }() // a hook still armed: the run ended before its boundary
	e.heap.init(e.procs)
	seedBuffers(e.procs)
	for len(e.heap) > 0 {
		q := e.heap.min()
		if q.wake == Forever {
			// Every live process is blocked with no pending messages.
			return makespan(e.procs), &DeadlockError{Detail: describe(e.procs)}
		}
		e.maybeCheckpoint(q.wake)
		e.prep(q)
		e.resumes++
		if !q.run() {
			e.heap.remove(q)
		}
	}
	return makespan(e.procs), nil
}

// CheckpointAt arms the one-shot checkpoint hook (see Engine.CheckpointAt).
func (e *SeqEngine) CheckpointAt(at Time, fn func()) {
	if at <= 0 {
		panic("sim: CheckpointAt requires a positive time")
	}
	e.ckAt, e.ckFn = at, fn
}

// maybeCheckpoint fires the armed checkpoint hook once the schedule's next
// event time has reached the boundary. Called at every scheduling decision
// (all processes parked), with next == the heap minimum's wake, which is
// never Forever (deadlock is detected before this point, so fn cannot fire
// on a deadlocked run).
func (e *SeqEngine) maybeCheckpoint(next Time) {
	if e.ckFn == nil || next < e.ckAt {
		return
	}
	fn := e.ckFn
	e.ckFn = nil
	fn()
}

// prep prepares the heap minimum q to run: idle catch-up, contract frontier,
// horizon, state. Every dispatch is a singleton window: all other processes
// resume at or after the second-best heap key, so nothing they send lands
// before that key plus the lookahead, and q may run that far (not past an
// armed checkpoint's boundary). Called with q == e.heap.min().
func (e *SeqEngine) prep(q *Proc) {
	q.catchUp()
	q.frontier = q.clock + e.lookahead
	h := e.heap.secondWake()
	if h != Forever {
		h += e.lookahead
	}
	if e.ckFn != nil && h > e.ckAt {
		h = e.ckAt
	}
	q.horizon = h
	q.state = stateRunning
}

// park re-keys the yielding process and implements the one scheduling
// decision taken off Run's loop: a process that is still the earliest keeps
// running with a refreshed horizon instead of bouncing through Run. It runs
// on the yielding process's coroutine; since exactly one process runs at a
// time, it touches the heap without locks.
func (e *SeqEngine) park(p *Proc) bool {
	e.heap.fix(p.heapIdx)
	if e.heap.min() != p || p.wake == Forever {
		return false
	}
	e.maybeCheckpoint(p.wake)
	e.prep(p)
	return true
}

// lowered is the decrease-key path: a post woke blocked process q earlier
// than its recorded wake time.
func (e *SeqEngine) lowered(q *Proc) { e.heap.up(q.heapIdx) }

// Procs returns the engine's processes (for stats collection after Run).
func (e *SeqEngine) Procs() []*Proc { return e.procs }

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
// own mutex, since a parallel deadlock report races only against parked
// workers but a consistent snapshot is still worth one uncontended lock per
// process. Only simulated state is named, so a run that deadlocks reports
// the same text under either engine: a finished process's stale wake time
// and the parallel engine's epoch are engine bookkeeping.
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
