package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParEngine is the conservative parallel engine, built as a sharded
// work-stealing scheduler. It exploits the machine model's minimum message
// delay (the lookahead): any message posted by a process whose clock is at
// least the global virtual time (GVT) arrives no earlier than GVT +
// lookahead. All processes whose next event falls inside the window
// [GVT, GVT+lookahead) can therefore execute without any of them observing a
// message from its logical past. The engine runs such windows back to back.
//
// # Sharded scheduling
//
// The P simulated processes are partitioned into W worker shards (block
// partition, so neighboring node ids share a shard). Each shard owns a local
// indexed (wake, id) min-heap of its parked processes and one persistent
// worker goroutine for the length of Run. A worker resumes its shard's
// admitted processes one at a time as coroutines, so at most W processes
// execute at any instant and no host thread is woken per simulated hand-off.
//
// When a worker exhausts its own run queue, it steals the tail of the
// heaviest remaining run queue and keeps going, so a process may be resumed
// by different workers in different windows (never by two at once: take
// removes it from its one run queue under the shard mutex).
//
// # Window turnover
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
// # Determinism
//
// Window membership, idle accounting, and message delivery order —
// (arrival, sender, per-sender sequence) — are all functions of virtual
// time, never of real-time interleaving or of which worker ran a process, so
// a parallel run is bit-identical to a sequential run of the same program
// regardless of worker count or steal timing. Stealing moves host work, not
// virtual-time events.
//
// The lookahead contract is enforced: a cross-process post whose arrival
// precedes the current window frontier panics (see Proc.Post). The machine
// layer guarantees the contract by charging at least the lookahead's worth
// of send overhead plus base latency on every message.
type ParEngine struct {
	procs     []*Proc
	lookahead Time
	tuning    Tuning
	workers   int  // resolved at Run
	spin      bool // barrier waits spin first: no more workers than usable CPUs
	shards    []*parShard
	window    uint64 // window generation, stamped on admitted procs
	windows   int64  // total windows opened (host counter)
	// frontier and horizon bound the next window's admitted processes; done
	// ends the run instead. The last arriver at the turnover barrier writes
	// them, every worker reads them after it.
	frontier, horizon Time
	done, deadlocked  bool
	// failure holds the first panic value a process body raised. The run
	// ends at the next turnover and Run re-panics with the value.
	failure atomic.Pointer[any]
	// ckAt/ckFn are the armed one-shot checkpoint hook (see
	// Engine.CheckpointAt); ckFn is nilled once fired. Only the last arriver
	// at the turnover barrier reads or fires them.
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
func NewParallel(lookahead Time, workers int) *ParEngine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: parallel engine requires positive lookahead, got %d", lookahead))
	}
	return &ParEngine{lookahead: lookahead, tuning: Tuning{Workers: workers}}
}

// Workers returns the resolved worker count (0 before Run).
func (e *ParEngine) Workers() int { return e.workers }

// Windows returns the number of conservative windows opened so far.
func (e *ParEngine) Windows() int64 { return e.windows }

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

// WorkerStats returns the per-shard host counters (nil before Run). Safe to
// call after Run returned; calling it while the engine runs would race.
func (e *ParEngine) WorkerStats() []WorkerStats {
	if e.shards == nil {
		return nil
	}
	out := make([]WorkerStats, len(e.shards))
	for i, sh := range e.shards {
		n := 0
		for _, p := range e.procs {
			if int(p.shard) == i {
				n++
			}
		}
		out[i] = WorkerStats{Worker: i, Procs: n, Resumes: sh.resumes, Stolen: sh.stolen, Steals: sh.steals, Parks: sh.parks}
	}
	return out
}

func (e *ParEngine) peer(id int) *Proc { return e.procs[id] }

// Spawn registers a new process whose body is fn. Processes start at time 0.
// Spawn must be called before Run.
func (e *ParEngine) Spawn(fn func(p *Proc)) *Proc {
	p := recycled(e.procs, fn)
	if p == nil {
		p = newProc(e, len(e.procs), fn, true)
	}
	e.procs = append(e.procs, p)
	return p
}

// Reset readies the engine for another Spawn/Run round (see Engine.Reset).
// The shards stay built; Run re-partitions the processes over them and
// rebuilds them only if the worker count changed.
func (e *ParEngine) Reset() {
	requireDone(e.procs)
	e.procs = e.procs[:0] // the backing array keeps the processes for Spawn
	e.window, e.windows = 0, 0
}

// Close ends the engine's last run (see Engine.Close).
func (e *ParEngine) Close() { closeProcs(e.procs) }

// park is called on the yielding process's coroutine after it has recorded
// its state and wake under its mutex: record the park for its shard's fold.
// The process then pauses and its worker picks what runs next.
func (e *ParEngine) park(p *Proc) bool {
	sh := e.shards[p.shard]
	sh.mu.Lock()
	sh.parked = append(sh.parked, p)
	sh.mu.Unlock()
	return false
}

// lowered records a decrease-key note: a post lowered blocked process q's
// wake below its key in q's shard heap. q's worker applies the note at the
// next fold; posters never touch foreign heaps. Called without q's mutex
// held (lock order: shard mutexes are leaves).
func (e *ParEngine) lowered(q *Proc) {
	if e.shards == nil {
		return // post before Run (spawn-time setup); heaps not built yet
	}
	sh := e.shards[q.shard]
	sh.mu.Lock()
	sh.lowered = append(sh.lowered, q)
	sh.mu.Unlock()
}

// work is the body of home's worker: fold, turnover barrier, admit, start
// barrier, serve (the home run queue's head first, then the heaviest
// victim's tail), end barrier — once per window, until the turnover ends the
// run.
func (e *ParEngine) work(home *parShard) {
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
func (e *ParEngine) arrive(home *parShard, turnover bool) {
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
func (e *ParEngine) resume(q *Proc) {
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
func (e *ParEngine) steal(home *parShard) *Proc {
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
func (e *ParEngine) turnover() {
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
	// An armed checkpoint fires at the first turnover whose GVT has reached
	// the boundary: every event before it has executed, none at or beyond it
	// has, and all processes are parked — the same boundary the sequential
	// engine fires at, so the captured state is bit-identical.
	if e.ckFn != nil && gvt >= e.ckAt {
		fn := e.ckFn
		e.ckFn = nil
		fn()
	}
	// While armed, no window may reach past the boundary: strict-mode local
	// advances stay strictly below the horizon, so clamping the frontier
	// keeps every pre-capture event strictly before the boundary. GVT < ckAt
	// here, so the window is never empty.
	clamp := Forever
	if e.ckFn != nil {
		clamp = e.ckAt
	}
	e.frontier = min(gvt+e.lookahead, clamp)
	e.horizon = e.frontier
	if second > e.frontier {
		// Singleton-window extension: exactly one process is admitted, and
		// nothing can arrive at it before second + lookahead, so it may run
		// that far (its own posts shrink the bound, see Post). The frontier,
		// and with it the lookahead check on posts, stays put. (A lone live
		// process, second == Forever, runs unbounded.)
		e.horizon = min(second+e.lookahead, Forever, clamp)
	}
	e.window++
	e.windows++
}

// admit moves the shard's processes inside the window from its heap to its
// run queue, each prepped (idle catch-up, horizon, state, window stamp)
// before the start barrier lets any worker take it.
func (sh *parShard) admit(e *ParEngine) {
	sh.runq, sh.head = sh.runq[:0], 0
	for len(sh.heap) > 0 && sh.heap.min().wake < e.frontier {
		p := sh.heap.popMin()
		p.catchUp()
		p.horizon, p.frontier = e.horizon, e.frontier
		p.state = stateRunning
		p.epochGen = e.window
		sh.runq = append(sh.runq, p)
	}
	sh.pending.Store(int32(len(sh.runq)))
}

// Run executes all processes until every one has returned. It returns the
// makespan: the largest final clock across processes. On deadlock (all
// processes blocked with empty mailboxes) it returns a *DeadlockError; the
// blocked process coroutines stay parked. Tuning problems (worker count out
// of [1, procs]) surface as a *TuningError. Run's own goroutine is shard
// 0's worker, and the other workers have all exited when Run returns; if a
// process body panicked, Run panics with the body's panic value.
func (e *ParEngine) Run() (Time, error) {
	if len(e.procs) == 0 {
		return 0, nil
	}
	if err := e.tuning.Validate(len(e.procs)); err != nil {
		return 0, err
	}
	e.workers = e.tuning.resolveWorkers(len(e.procs))
	// More spinning workers than usable CPUs would spin against the very
	// workers they wait for.
	e.spin = e.workers <= min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	e.done = false
	e.arenaShards()
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
	e.ckFn = nil // the run ended before the boundary
	if r := e.failure.Load(); r != nil {
		panic(*r)
	}
	if e.deadlocked {
		return makespan(e.procs), &DeadlockError{Detail: describe(e.procs)}
	}
	return makespan(e.procs), nil
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

// arenaShards partitions the processes over the worker shards and sizes every
// per-shard buffer the window turnover touches so the steady state allocates
// nothing: the parked/lowered/run queues get capacity for every process the
// shard owns (they are reset to length zero each window, never beyond that
// bound), and each shard's new processes get their message buffers from one
// per-shard slab (see seedBuffers), adjacent for the worker that polls them.
// The shards, their queues and their wake channels survive Reset.
func (e *ParEngine) arenaShards() {
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
	// Block partition: shard i owns procs [i*P/W, (i+1)*P/W) — neighboring
	// node ids (which talk the most under owner-major layouts) share a
	// shard and therefore a worker's cache.
	for i, p := range e.procs {
		p.shard = int32(i * e.workers / len(e.procs))
		e.shards[p.shard].heap.push(p)
	}
	for _, sh := range e.shards {
		n := len(sh.heap)
		if cap(sh.runq) < n {
			sh.runq = make([]*Proc, 0, n)
			sh.parked = make([]*Proc, 0, n)
			sh.lowered = make([]*Proc, 0, n)
		}
		sh.runq, sh.head = sh.runq[:0], 0
		sh.pending.Store(0)
		sh.parked, sh.lowered = sh.parked[:0], sh.lowered[:0]
		sh.resumes, sh.stolen, sh.steals, sh.parks = 0, 0, 0, 0
		seedBuffers(sh.heap)
	}
}

// Procs returns the engine's processes (for stats collection after Run).
func (e *ParEngine) Procs() []*Proc { return e.procs }

// CheckpointAt arms the one-shot checkpoint hook (see Engine.CheckpointAt).
func (e *ParEngine) CheckpointAt(at Time, fn func()) {
	if at <= 0 {
		panic("sim: CheckpointAt requires a positive time")
	}
	e.ckAt, e.ckFn = at, fn
}
