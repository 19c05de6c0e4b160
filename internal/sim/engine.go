package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Engine drives a set of processes to completion in virtual time: a
// conservative scheduler that resumes processes in (wake, id) order. Spawn
// must not be called after Run; Run may be called once per Reset.
//
// An engine built with a lookahead (NewEngineWith, NewParallel) holds its
// caller to it: no cross-process Post may arrive less than the lookahead
// after the sender's clock. The engine schedules on that promise and checks
// it (see Proc.Post).
//
// # One worker
//
// The worker count W, resolved at Run, picks the loop. At W = 1 (the
// Sequential kind, or Parallel resolving to one worker) Run resumes one
// process at a time on its caller's goroutine: read the wake heap's minimum,
// resume that process, look again once it yields or returns. Each dispatch
// is a singleton window (see prep). A scheduling event costs one O(log P)
// heap fix and one coroutine switch each way, none at all when the yielding
// process is still the earliest (see park), and no process takes a mailbox
// lock.
//
// # Sharded windows
//
// At W ≥ 2 Run exploits the lookahead: any message posted by a process whose
// clock is at least the global virtual time (GVT) arrives no earlier than
// GVT + lookahead, so all processes whose next event falls inside the window
// [GVT, GVT+lookahead) can execute without any of them observing a message
// from its logical past. Run opens such windows back to back.
//
// The processes are partitioned into W shards (block partition, so
// neighboring node ids share a shard). Each shard owns an indexed (wake, id)
// min-heap of its parked processes and one persistent worker goroutine for
// the length of Run. A worker resumes its shard's admitted processes one at
// a time as coroutines. When it exhausts its own run queue, it steals the
// tail of the heaviest remaining one, so a process may be resumed by
// different workers in different windows (never by two at once: take
// removes it from its one run queue under the shard mutex).
//
// Every worker takes part in every turnover. A window ends at a barrier each
// worker reaches once its own run queue is empty and no other is left to
// steal from. Each worker then folds its own shard (see fold). The last
// worker to reach a second barrier does the only serial work, O(W): it
// min-reduces the shards' wakes into the GVT and the frontier, fires an
// armed checkpoint, and ends the run. Each worker then admits its own shard's
// processes inside the window, and a third barrier lets them run: a post
// must not lower a key in a heap that its owner is still popping. A barrier
// wait spins, then parks (see arrive); the barrier's atomics order all shard
// state a worker reads across it.
//
// Window membership, idle accounting and message delivery order —
// (arrival, sender, per-sender sequence) — are all functions of virtual
// time, never of real-time interleaving or of which worker ran a process, so
// a run is bit-identical at every worker count regardless of steal timing.
type Engine struct {
	procs     []*Proc
	kind      EngineKind
	lookahead Time
	tuning    Tuning
	workers   int  // resolved at Run
	spin      bool // barrier waits spin first: no more workers than usable CPUs
	// shards hold the schedule: W heaps, of which shard 0's is the W = 1
	// loop's one heap.
	shards  []*parShard
	windows int64 // total windows opened (host counter)
	// frontier and horizon bound the next window's admitted processes; done
	// ends the run instead. The last arriver at the turnover barrier writes
	// them, every worker reads them after it.
	frontier, horizon Time
	done, deadlocked  bool
	// failure holds the first panic value a process body raised in a window.
	// The run ends at the next turnover and Run re-panics with the value.
	failure atomic.Pointer[any]
	// ckAt/ckFn are the armed one-shot checkpoint hook (see CheckpointAt);
	// ckFn is nilled once fired.
	ckAt Time
	ckFn func()

	_       [64]byte // the barrier words are written by every worker
	arrived atomic.Int32
	gen     atomic.Uint32 // bumped by each barrier's release
}

// spinYields bounds a barrier wait's spin: the waiter looks at the
// generation word this many times, yielding its thread between looks, before
// it parks on its shard's channel. Swept on bh64_static at seed 42 (2-CPU
// Xeon VM, W = 2, median host_s_par of 3 runs; the engine before the spin
// gave 0.80 s): 0 (park at once) / 16 / 64 / 256 / 1024 / 4096 yields gave
// 0.85 / 0.68 / 0.56 / 0.56 / 0.56 / 0.52 s — flat once a window's barrier
// ends inside the spin, so it is a constant.
const spinYields = 256

// parShard is one worker's shard: a heap of parked processes plus the
// window-scoped run queue and the two note lists the fold consumes. The
// mutex guards runq/parked/lowered against owner-vs-thief access during a
// window; the heap is touched only by the shard's worker between barriers.
type parShard struct {
	id      int
	heap    schedHeap
	lo, lo2 Time // the heap's two earliest wakes after the fold
	// wake parks the shard's worker in a barrier (buffer of one: the send
	// never blocks); asleep is 1 + the barrier generation it sleeps through,
	// 0 when awake.
	wake   chan struct{}
	asleep atomic.Uint64

	mu   sync.Mutex
	runq []*Proc // admitted, not yet resumed (sorted by (wake,id); head serves the owner, tail serves thieves)
	head int
	// pending mirrors len(runq)-head so steal scans read one atomic instead
	// of taking the lock.
	pending atomic.Int32
	parked  []*Proc // procs that yielded during this window, folded into heap at turnover
	lowered []*Proc // blocked procs whose wake a poster lowered (stale heap keys)

	// Host counters: resumes and stolen are guarded by mu, steals and parks
	// are written by the shard's own worker only.
	resumes int64 // procs served from this shard's run queue to its own worker
	stolen  int64 // procs thieves took from this shard's run queue
	steals  int64 // procs this shard's worker took from other shards
	parks   int64 // barrier waits that ended on the wake channel

	_ [64]byte // keep shards off each other's cache lines
}

// take removes one admitted process from the shard's run queue: the head for
// the shard's own worker, the tail for thieves (classic deque discipline —
// thieves take the latest-waking work, preserving the owner's locality).
// Returns nil when the queue is empty.
func (sh *parShard) take(steal bool) *Proc {
	if sh.pending.Load() == 0 {
		return nil
	}
	sh.mu.Lock()
	var q *Proc
	if sh.head < len(sh.runq) {
		if steal {
			q = sh.runq[len(sh.runq)-1]
			sh.runq[len(sh.runq)-1] = nil
			sh.runq = sh.runq[:len(sh.runq)-1]
			sh.stolen++
		} else {
			q = sh.runq[sh.head]
			sh.runq[sh.head] = nil
			sh.head++
			sh.resumes++
		}
		sh.pending.Add(-1)
	}
	sh.mu.Unlock()
	return q
}

// NewEngine returns an empty sequential engine with lookahead 0: a resumed
// process's horizon is the bare second-best wake time, and Post accepts any
// arrival at or after the sender's clock.
func NewEngine() *Engine { return &Engine{} }

// NewParallel returns an empty parallel engine with the given lookahead (the
// machine's minimum cross-process message delay, in cycles, and the width of
// every window) and worker count (0 means auto: min(GOMAXPROCS, process
// count)). The lookahead must be positive: with zero lookahead no two
// processes can ever be safely coscheduled and the sequential engine should
// be used instead. The worker count is checked at Run, when the process count
// is known.
//
// Panic contract (intentional, mirrored by machine.New): a non-positive
// lookahead here is a programming bug in the caller, not an input error.
// Input-level validation with typed errors lives in Tuning.Validate and
// NewEngineWith.
func NewParallel(lookahead Time, workers int) *Engine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: parallel engine requires positive lookahead, got %d", lookahead))
	}
	return &Engine{kind: Parallel, lookahead: lookahead, tuning: Tuning{Workers: workers}}
}

// Workers returns the resolved worker count (0 before Run).
func (e *Engine) Workers() int { return e.workers }

// Windows returns the number of conservative windows opened so far (none at
// W = 1).
func (e *Engine) Windows() int64 { return e.windows }

// WorkerStats is one worker shard's host-side scheduling counters. Unlike
// every virtual-time statistic, these depend on host timing (steal races)
// and are therefore excluded from the deterministic run tables.
type WorkerStats struct {
	// Worker is the shard index.
	Worker int
	// Procs is the number of simulated processes the shard owns.
	Procs int
	// Resumes counts processes the shard's own worker served from its run
	// queue.
	Resumes int64
	// Stolen counts processes thieves took from this shard's run queue.
	Stolen int64
	// Steals counts processes this shard's worker took from other shards.
	Steals int64
	// Parks counts the worker's barrier waits that ended asleep on its
	// shard's channel rather than in the spin.
	Parks int64
}

// WorkerStats returns the per-shard host counters, one row per worker (nil
// before Run). Safe to call after Run returned; calling it while the engine
// runs would race.
func (e *Engine) WorkerStats() []WorkerStats {
	if e.shards == nil {
		return nil
	}
	out := make([]WorkerStats, len(e.shards))
	for i, sh := range e.shards {
		out[i] = WorkerStats{Worker: i, Resumes: sh.resumes, Stolen: sh.stolen, Steals: sh.steals, Parks: sh.parks}
	}
	for _, p := range e.procs {
		out[p.shard].Procs++
	}
	return out
}

// Spawn registers a new process whose body is fn. Processes start at time 0.
// Spawn must be called before Run. After Reset it hands out the previous
// run's process with the next id, respawned on fn.
func (e *Engine) Spawn(fn func(p *Proc)) *Proc {
	id := len(e.procs)
	var p *Proc
	if id < cap(e.procs) {
		p = e.procs[:id+1][id]
	}
	if p == nil {
		p = &Proc{id: id, sched: e}
	}
	p.respawn(fn)
	e.procs = append(e.procs, p)
	return p
}

// Reset returns the engine to the state a new engine of the same kind and
// lookahead starts in, for another round of Spawn and Run. It keeps the
// storage: the processes the next Spawns hand out are the previous run's, in
// id order, with their message buffers emptied but not freed, and the
// engine's shards keep their heaps and queues. Each process keeps its
// coroutine, parked since its body returned, and the next Spawn hands it the
// new body. Every process must have completed: a deadlocked or panicked run
// leaves coroutines parked inside their bodies, and Reset panics rather than
// hand them out.
func (e *Engine) Reset() {
	for _, p := range e.procs {
		if p.state != stateDone {
			panic(fmt.Sprintf("sim: Reset with process %d not completed (state %d): "+
				"a deadlocked or failed run leaves its coroutines parked", p.id, p.state))
		}
	}
	e.procs = e.procs[:0] // the backing array keeps the processes for Spawn
	e.windows = 0
}

// Close ends the engine's last run: the coroutine of every process not
// inside its body — completed, or spawned and never started — returns, so no
// goroutine of a clean run outlives it. Call it once the engine will not run
// again (a later Spawn and Run still work, on new coroutines). A process
// still inside its body — a deadlocked or panicked run — stays parked. After
// Reset the backing array still holds the last run's processes.
func (e *Engine) Close() {
	for _, p := range e.procs[:cap(e.procs)] {
		if p != nil && p.co != nil && p.co.idle() {
			p.co.stop()
			p.co = nil
		}
	}
}

// Procs returns the engine's processes (for stats collection after Run).
func (e *Engine) Procs() []*Proc { return e.procs }

// CheckpointAt arms a one-shot checkpoint hook for the coming Run: fn runs
// exactly once, at the first scheduling boundary where every process's next
// event lies at or beyond at — every virtual-time event before at has
// executed and none at or beyond it has, with all processes parked. The
// boundary is a pure function of the simulated programs, so every engine
// fires with bit-identical process state; horizons are clamped to at while
// armed, which changes when processes yield but never what they compute. at
// must be positive; if the run completes or deadlocks before at, fn never
// runs and the hook is disarmed. Must be called before Run; fn must not call
// back into the engine.
func (e *Engine) CheckpointAt(at Time, fn func()) {
	if at <= 0 {
		panic("sim: CheckpointAt requires a positive time")
	}
	e.ckAt, e.ckFn = at, fn
}

// maybeCheckpoint fires the armed checkpoint hook once the schedule's next
// event time has reached the boundary. It is called with every process
// parked and next the earliest wake, never Forever (a deadlock ends the run
// first, so fn cannot fire on a deadlocked run).
func (e *Engine) maybeCheckpoint(next Time) {
	if e.ckFn == nil || next < e.ckAt {
		return
	}
	fn := e.ckFn
	e.ckFn = nil
	fn()
}

// reach bounds what runs once every other process's next event lies at or
// after t: nothing they send lands before t + lookahead, and while a
// checkpoint is armed nothing may run past its boundary (a local advance
// stays strictly below the horizon, so every pre-capture event stays strictly
// before it). It is a window's frontier (t the GVT) and a lone runner's
// horizon (t the second-earliest wake; Forever when it is the only live
// process).
func (e *Engine) reach(t Time) Time {
	h := min(t+e.lookahead, Forever)
	if e.ckFn != nil {
		h = min(h, e.ckAt)
	}
	return h
}

// Run executes all processes until every one has returned, and returns the
// makespan: the largest final clock across processes. On deadlock (all
// processes blocked with empty mailboxes) it returns the makespan so far and
// a *DeadlockError; the deadlocked process coroutines stay parked and their
// final statistics remain readable. A panic in a process body panics out of
// Run with the original value. Tuning problems (worker count out of [1,
// procs]) surface as a *TuningError. Run's own goroutine is the W = 1 loop,
// or shard 0's worker, and the other workers have all exited when Run
// returns.
func (e *Engine) Run() (Time, error) {
	defer func() { e.ckFn = nil }() // a hook still armed: the run ended before its boundary
	if len(e.procs) == 0 {
		return 0, nil
	}
	e.workers = 1
	if e.kind == Parallel {
		if err := e.tuning.Validate(len(e.procs)); err != nil {
			return 0, err
		}
		e.workers = e.tuning.resolveWorkers(len(e.procs))
	}
	e.arenaShards()
	if e.workers == 1 {
		return e.loop()
	}
	// More spinning workers than usable CPUs would spin against the very
	// workers they wait for.
	e.spin = e.workers <= min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	e.done = false
	var workers sync.WaitGroup
	workers.Add(e.workers - 1)
	for _, sh := range e.shards[1:] {
		go func() {
			defer workers.Done()
			e.work(sh)
		}()
	}
	e.work(e.shards[0])
	workers.Wait()
	if r := e.failure.Load(); r != nil {
		panic(*r)
	}
	if e.deadlocked {
		return makespan(e.procs), &DeadlockError{Detail: describe(e.procs)}
	}
	return makespan(e.procs), nil
}

// loop is Run at W = 1: resume the heap minimum until every process has
// returned or every live one is blocked with no pending messages.
func (e *Engine) loop() (Time, error) {
	sh := e.shards[0]
	for len(sh.heap) > 0 {
		q := sh.heap.min()
		if q.wake == Forever {
			return makespan(e.procs), &DeadlockError{Detail: describe(e.procs)}
		}
		e.maybeCheckpoint(q.wake)
		e.prep(q)
		sh.resumes++
		if !q.run() {
			sh.heap.remove(q)
		}
	}
	return makespan(e.procs), nil
}

// prep prepares the heap minimum q to run at W = 1: idle catch-up, contract
// frontier, horizon, state. Every dispatch is a singleton window: all other
// processes resume at or after the second-best heap key, so q may run as far
// as reach allows from it.
func (e *Engine) prep(q *Proc) {
	q.catchUp()
	q.frontier = q.clock + e.lookahead
	q.horizon = e.reach(e.shards[0].heap.secondWake())
	q.state = stateRunning
}

// park is called on the yielding process's coroutine after it has recorded
// its state and wake. A true return means the caller keeps running (no
// switch); false means it pauses its coroutine and its resumer picks what
// runs next. In a window the park is a note for the shard's fold. At W = 1,
// where exactly one process runs at a time, the process is re-keyed in the
// one heap without locks, and one that is still the earliest keeps running
// with a refreshed horizon instead of bouncing through Run's loop.
func (e *Engine) park(p *Proc) bool {
	if p.strict {
		sh := e.shards[p.shard]
		sh.mu.Lock()
		sh.parked = append(sh.parked, p)
		sh.mu.Unlock()
		return false
	}
	h := e.shards[0].heap
	h.fix(p.heapIdx)
	if h.min() != p || p.wake == Forever {
		return false
	}
	e.maybeCheckpoint(p.wake)
	e.prep(p)
	return true
}

// lowered records a decrease-key note in a window: a post lowered blocked
// process q's wake below its key in q's shard heap. q's worker applies the
// note at the next fold; posters never touch foreign heaps. Called without
// q's mutex held (lock order: shard mutexes are leaves).
func (e *Engine) lowered(q *Proc) {
	sh := e.shards[q.shard]
	sh.mu.Lock()
	sh.lowered = append(sh.lowered, q)
	sh.mu.Unlock()
}

// work is the body of home's worker: fold, turnover barrier, admit, start
// barrier, serve (the home run queue's head first, then the heaviest
// victim's tail), end barrier — once per window, until the turnover ends the
// run.
func (e *Engine) work(home *parShard) {
	for {
		home.fold()
		e.arrive(home, true)
		if e.done {
			return
		}
		home.admit(e)
		e.arrive(home, false)
		for {
			q := home.take(false)
			if q == nil {
				q = e.steal(home)
			}
			if q == nil {
				break
			}
			e.resume(q)
		}
		e.arrive(home, false)
	}
}

// arrive is the window barrier. The last of the workers to arrive runs the
// turnover first if asked to, then releases the others: every worker's
// writes before its arrival happen before the turnover, and the turnover's
// writes before every worker's return. The others wait by spinning, then
// parking; an asleep mark set before the last look at the generation word
// and claimed by the releaser keeps a wake from being lost.
func (e *Engine) arrive(home *parShard, turnover bool) {
	g := e.gen.Load()
	asleep := uint64(g) + 1
	if int(e.arrived.Add(1)) == e.workers {
		e.arrived.Store(0)
		if turnover {
			e.turnover()
		}
		e.gen.Add(1)
		for _, sh := range e.shards {
			// A released worker may already sleep in the next barrier: claim
			// only this one's sleepers.
			if sh.asleep.Load() == asleep && sh.asleep.CompareAndSwap(asleep, 0) {
				sh.wake <- struct{}{}
			}
		}
		return
	}
	for i := 0; e.spin && i < spinYields; i++ {
		if e.gen.Load() != g {
			return
		}
		runtime.Gosched()
	}
	home.asleep.Store(asleep)
	if e.gen.Load() != g && home.asleep.CompareAndSwap(asleep, 0) {
		return // released after all, and the releaser did not claim us
	}
	<-home.wake
	home.parks++
}

// resume runs q until it yields or returns. A done process is simply never
// folded back into a heap; a panicking one counts as done, and its panic
// value is kept for Run.
func (e *Engine) resume(q *Proc) {
	defer func() {
		if r := recover(); r != nil {
			v := r // only a panic pays for the escaping copy
			e.failure.CompareAndSwap(nil, &v)
		}
	}()
	q.run()
}

// steal takes the tail of the heaviest other shard's run queue. Run queues
// only shrink during a window, so a scan that finds them all empty is final.
func (e *Engine) steal(home *parShard) *Proc {
	for {
		var victim *parShard
		best := int32(0)
		for _, sh := range e.shards {
			if sh == home {
				continue
			}
			if n := sh.pending.Load(); n > best {
				best, victim = n, sh
			}
		}
		if victim == nil {
			return nil
		}
		if q := victim.take(true); q != nil {
			home.steals++
			return q
		}
	}
}

// fold returns the processes that parked during the window to the shard's
// heap and records the shard's two earliest wakes for the turnover. Notes of
// lowered keys rebuild the heap: per-note up() sifts are NOT sound, even for
// one note, since a push can legitimately stop beneath a stale key whose
// later sift drops its old parent onto the fresh element
// (TestLoweredKeyRepair). Heapify is O(shard), no worse than admission.
func (sh *parShard) fold() {
	for _, p := range sh.parked {
		if p.state != stateDone {
			sh.heap.push(p)
		}
	}
	sh.parked = sh.parked[:0]
	if len(sh.lowered) > 0 {
		sh.heap.heapify()
		sh.lowered = sh.lowered[:0]
	}
	sh.lo, sh.lo2 = Forever, Forever
	if len(sh.heap) > 0 {
		sh.lo, sh.lo2 = sh.heap.min().wake, sh.heap.secondWake()
	}
}

// turnover is the serial O(W) step between two windows, run by the last
// worker to fold: min-reduce the shards' wakes into the GVT and the
// next-earliest wake, end the run when it is over — all done, deadlocked, or
// a process body panicked — and otherwise fire a due checkpoint and bound
// the next window.
func (e *Engine) turnover() {
	gvt, second := Forever, Forever
	live := false
	for _, sh := range e.shards {
		live = live || len(sh.heap) > 0
		if sh.lo < gvt {
			gvt, second = sh.lo, gvt
		} else if sh.lo < second {
			second = sh.lo
		}
		second = min(second, sh.lo2)
	}
	// gvt == Forever with live processes: every one of them is blocked with
	// no pending messages (the coroutines stay parked).
	e.deadlocked = live && gvt == Forever
	if e.done = !live || e.deadlocked || e.failure.Load() != nil; e.done {
		return
	}
	e.maybeCheckpoint(gvt)
	// GVT < ckAt once the hook stays armed, so the window is never empty.
	e.frontier = e.reach(gvt)
	e.horizon = e.frontier
	if second > e.frontier {
		// Singleton window: exactly one process is admitted, and it may run
		// as far as a W = 1 dispatch would (its own posts shrink the bound,
		// see Post). The frontier, and with it the lookahead check on posts,
		// stays put.
		e.horizon = e.reach(second)
	}
	e.windows++
}

// admit moves the shard's processes inside the window from its heap to its
// run queue, each prepped (idle catch-up, horizon, state) before the start
// barrier lets any worker take it.
func (sh *parShard) admit(e *Engine) {
	sh.runq, sh.head = sh.runq[:0], 0
	for len(sh.heap) > 0 && sh.heap.min().wake < e.frontier {
		p := sh.heap.popMin()
		p.catchUp()
		p.horizon, p.frontier = e.horizon, e.frontier
		p.state = stateRunning
		sh.runq = append(sh.runq, p)
	}
	sh.pending.Store(int32(len(sh.runq)))
}

// The capacities of each process's message buffers carved from a slab at its
// first Run: the mailbox ring, which holds in-order arrivals and is emptied as
// they are delivered, and the overflow heap and drain buffer, which hold
// what one delivery batch brings. EM3D at 1,024 nodes peaks at 15 messages on
// a ring and at 46 and 35 on the other two, but nine nodes in ten stay within
// 32 on the heap and all but a handful within 32 on the drain buffer.
const (
	bufSeed   = 16
	batchSeed = 32
)

// seedBuffers carves the mailbox ring, overflow heap and drain buffer of
// every process that has none yet out of one message slab — one allocation
// per call instead of three append chains per process, with neighboring
// processes' buffers on adjacent cache lines. The buffers are kept for the
// process's life, across runs (Reset empties them in place); one that
// outgrows its slab segment migrates to its own array via the ordinary append
// path, since the three-index carve caps capacity at the segment. A mailbox
// that already holds pre-posted messages (setup traffic from before Run)
// keeps its grown ring and heap.
func seedBuffers(procs []*Proc) {
	fresh := 0
	for _, p := range procs {
		if cap(p.drainBuf) == 0 {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	slab := make([]Message, fresh*(bufSeed+2*batchSeed))
	carve := func(n int) []Message {
		seg := slab[0:0:n]
		slab = slab[n:]
		return seg
	}
	for _, p := range procs {
		if cap(p.drainBuf) != 0 {
			continue
		}
		if p.mailbox.size() == 0 {
			p.mailbox = mailbox{ring: carve(bufSeed), ovf: msgHeap(carve(batchSeed))}
		}
		p.drainBuf = carve(batchSeed)
	}
}

// arenaShards partitions the processes over the worker shards, sets their
// locking mode, and sizes every per-shard buffer the window turnover touches
// so the steady state allocates nothing: the heap and the parked/lowered/run
// queues get capacity for every process the shard owns (the queues are reset
// to length zero each window, never beyond that bound; the W = 1 loop uses
// none), and each shard's new processes get their message buffers from one
// per-shard slab (see seedBuffers), adjacent for the worker that polls them.
// The shards, their queues and their wake channels survive Reset.
func (e *Engine) arenaShards() {
	if len(e.shards) != e.workers {
		// One slab for all shard structs (the cache-line pad in parShard
		// keeps neighbors apart within it), pointers into the slab
		// everywhere else.
		shardSlab := make([]parShard, e.workers)
		e.shards = make([]*parShard, e.workers)
		for i := range shardSlab {
			shardSlab[i].id = i
			shardSlab[i].wake = make(chan struct{}, 1)
			e.shards[i] = &shardSlab[i]
		}
	}
	// Only windows have concurrent posters. A strict process's mailbox size
	// is mirrored from here on, including what was posted before Run.
	strict := e.workers > 1
	most := (len(e.procs) + e.workers - 1) / e.workers // no shard owns more
	for _, sh := range e.shards {
		sh.heap = slices.Grow(sh.heap, most)
		if strict && cap(sh.runq) < most {
			sh.runq = make([]*Proc, 0, most)
			sh.parked = make([]*Proc, 0, most)
			sh.lowered = make([]*Proc, 0, most)
		}
		sh.runq, sh.head = sh.runq[:0], 0
		sh.pending.Store(0)
		sh.parked, sh.lowered = sh.parked[:0], sh.lowered[:0]
		sh.resumes, sh.stolen, sh.steals, sh.parks = 0, 0, 0, 0
	}
	// Block partition: shard i owns procs [i*P/W, (i+1)*P/W) — neighboring
	// node ids (which talk the most under owner-major layouts) share a
	// shard and therefore a worker's cache.
	for i, p := range e.procs {
		p.shard = int32(i * e.workers / len(e.procs))
		p.strict = strict
		p.mailN.Store(int32(p.mailbox.size()))
		e.shards[p.shard].heap.push(p)
	}
	for _, sh := range e.shards {
		seedBuffers(sh.heap)
	}
}
