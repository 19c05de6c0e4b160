package sim

import (
	"fmt"
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
// worker goroutine, started by Run and gone when Run returns. At a window
// open the opener pops every process whose wake time lies inside the window
// from its shard's heap into that shard's run queue and wakes the workers of
// the shards that admitted something. A worker resumes its shard's admitted
// processes one at a time as coroutines, so at most W processes execute at
// any instant and a host thread is woken at most once per shard per window,
// never per simulated hand-off.
//
// When a worker exhausts its own run queue and stealing is enabled, it steals
// the tail of the heaviest remaining run queue and keeps going, so a process
// may be resumed by different workers in different windows (never by two at
// once: take removes it from its one run queue under the shard mutex). A
// worker goes back to sleep only when every run queue is empty; the last one
// to do so opens the next window itself.
//
// # Decentralized horizon min-reduction
//
// The next window's GVT is not found by a stop-the-world scan over all P
// processes. Each shard's heap root already carries the shard's earliest
// wake, so the opener folds W heap roots (a min-reduction over shards)
// plus two bounded lists per shard: the processes that parked during the
// window, and the blocked processes whose wake a cross-process post lowered
// (the poster records a decrease-key note instead of touching the foreign
// heap; the opener rebuilds a noted shard's heap, since batched stale keys
// cannot be repaired by per-element sifts). Opening a window therefore costs
// O(W + parked·log(shard) + noted-shard sizes) instead of O(P).
//
// All shard state the opener reads is synchronized by the active-worker
// counter: every worker's writes happen before its final atomic decrement,
// and the opener is the worker that observed the counter reach zero.
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
	workers   int // resolved at Run
	stealing  bool
	shards    []*parShard
	// active counts workers still serving the current window. The final
	// decrement's atomicity orders every worker's shard writes before the
	// opener's reads.
	active  atomic.Int32
	window  uint64      // window generation, stamped on admitted procs
	windows int64       // total windows opened (host counter)
	wakes   []*parShard // window-open scratch: the shards whose workers to wake
	// deadlocked is set by the opener that ends the run and read by Run
	// after the workers exited.
	deadlocked bool
	// failure holds the first panic value a process body raised. The run
	// ends at the next window open and Run re-panics with the value.
	failure atomic.Pointer[any]
	// ckAt/ckFn are the armed one-shot checkpoint hook (see
	// Engine.CheckpointAt); ckFn is nilled once fired. Only the
	// single-threaded window opener reads or fires them.
	ckAt Time
	ckFn func()
}

// parShard is one worker's shard: a heap of parked processes plus the
// window-scoped run queue and the two note lists the opener folds. The
// mutex guards runq/parked/lowered against owner-vs-thief access during a
// window; the heap is touched only by the single-threaded opener.
type parShard struct {
	id   int
	heap schedHeap
	// wake rouses the shard's worker for a window its shard admitted
	// processes to (at most one send per window, hence the buffer of one);
	// closing it ends the worker.
	wake chan struct{}

	mu   sync.Mutex
	runq []*Proc // admitted, not yet resumed (sorted by (wake,id); head serves the owner, tail serves thieves)
	head int
	// pending mirrors len(runq)-head so steal scans read one atomic instead
	// of taking the lock.
	pending atomic.Int32
	parked  []*Proc // procs that yielded during this window, folded into heap at open
	lowered []*Proc // blocked procs whose wake a poster lowered (stale heap keys)

	// Host counters: resumes and stolen are guarded by mu, steals is
	// written by the shard's own worker only.
	resumes int64 // procs served from this shard's run queue to its own worker
	stolen  int64 // procs thieves took from this shard's run queue
	steals  int64 // procs this shard's worker took from other shards

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
// machine's minimum cross-process message delay, in cycles) and default
// tuning: worker count from GOMAXPROCS, stealing on. The lookahead must be
// positive: with zero lookahead no two processes can ever be safely
// coscheduled and the sequential engine should be used instead.
//
// Panic contract (intentional, mirrored by machine.New): a non-positive
// lookahead here is a programming bug in the caller, not an input error.
// Input-level validation with typed errors lives in Tuning.Validate and
// NewEngineWith.
func NewParallel(lookahead Time) *ParEngine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: parallel engine requires positive lookahead, got %d", lookahead))
	}
	return &ParEngine{lookahead: lookahead}
}

// NewParallelTuned is NewParallel with explicit tuning (worker count, steal
// policy; Tuning.Lookahead must already be resolved into lookahead — see
// NewEngineWith). The tuning's workers-vs-procs bound is checked at Run,
// when the process count is known.
func NewParallelTuned(lookahead Time, t Tuning) *ParEngine {
	e := NewParallel(lookahead)
	e.tuning = t
	return e
}

// Lookahead returns the engine's lookahead window width in cycles.
func (e *ParEngine) Lookahead() Time { return e.lookahead }

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
		out[i] = WorkerStats{Worker: i, Procs: n, Resumes: sh.resumes, Stolen: sh.stolen, Steals: sh.steals}
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

// park is called on the yielding process's coroutine after it has recorded
// its state and wake under its mutex: record the park for the opener's fold.
// The process then pauses and its worker picks what runs next.
func (e *ParEngine) park(p *Proc) bool {
	sh := e.shards[p.shard]
	sh.mu.Lock()
	sh.parked = append(sh.parked, p)
	sh.mu.Unlock()
	return false
}

// lowered records a decrease-key note: a post lowered blocked process q's
// wake below its key in q's shard heap. The opener applies the note at the
// next window open; posters never touch foreign heaps. Called without q's
// mutex held (lock order: shard mutexes are leaves).
func (e *ParEngine) lowered(q *Proc) {
	if e.shards == nil {
		return // post before Run (spawn-time setup); heaps not built yet
	}
	sh := e.shards[q.shard]
	sh.mu.Lock()
	sh.lowered = append(sh.lowered, q)
	sh.mu.Unlock()
}

// work is the body of home's worker goroutine. Each wake-up serves one
// window: the home run queue's head first, then (stealing) the heaviest
// victim's tail. The worker that runs dry last opens the next window and
// keeps serving when its own shard is part of it; the opener that ends the
// run closes every wake channel, its own included.
func (e *ParEngine) work(home *parShard) {
	for range home.wake {
		for {
			q := home.take(false)
			if q == nil && e.stealing {
				q = e.steal(home)
			}
			if q != nil {
				e.resume(q)
			} else if e.active.Add(-1) > 0 || !e.openWindow(home) {
				break
			}
		}
	}
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

// openWindow runs the window turnover: fold parked processes and
// decrease-key notes into the shard heaps, min-reduce the shard heap roots
// into the GVT, admit every process inside [GVT, GVT+lookahead) to its
// shard's run queue, and wake the worker of every shard that admitted
// something. It runs either on Run's goroutine (the first window, home ==
// nil) or on the last worker of the previous window, which keeps serving
// instead of being woken when the result is true: home itself admitted
// something. When the run is over — all done, deadlocked, or a process body
// panicked — it ends every worker instead.
func (e *ParEngine) openWindow(home *parShard) bool {
	// All workers have run dry: their counter decrements synchronize their
	// state, wake, mailbox, and note-list writes with this turnover, so no
	// locks are needed.
	gvt, second := Forever, Forever
	live := false
	for _, sh := range e.shards {
		for _, p := range sh.parked {
			if p.state != stateDone {
				sh.heap.push(p)
			}
		}
		sh.parked = sh.parked[:0]
		// Decrease-key notes: one or more in-heap keys went stale (lowered)
		// during the window, so rebuild the shard heap. Per-note up() sifts
		// are NOT sound here, even for a single note: a parked-fold push
		// compares against the noted process's current (lowered) wake and can
		// legitimately stop beneath it, and the up() that then lifts the
		// noted process away drops its old larger parent onto the fresh
		// element — a violated edge with no note left to repair it. Two
		// stale keys compose the same trap without any pushes. Heapify is
		// O(shard) = O(P/W), no worse than the window's admission work.
		// (A process lowered while in the parked list was pushed above with
		// its already-lowered wake and needs no repair, but the rebuild is
		// harmless.)
		if len(sh.lowered) > 0 {
			sh.heap.heapify()
			sh.lowered = sh.lowered[:0]
		}
		if len(sh.heap) == 0 {
			continue
		}
		live = true
		if w := sh.heap.min().wake; w < gvt {
			gvt, second = w, gvt
		} else if w < second {
			second = w
		}
		if w2 := sh.heap.secondWake(); w2 < second {
			second = w2
		}
	}
	// gvt == Forever with live processes: every one of them is blocked with
	// no pending messages. Run reports the DeadlockError; the blocked
	// coroutines stay parked.
	e.deadlocked = live && gvt == Forever
	if !live || e.deadlocked || e.failure.Load() != nil {
		for _, sh := range e.shards {
			close(sh.wake)
		}
		return false
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
	frontier := gvt + e.lookahead
	if e.ckFn != nil && frontier > e.ckAt {
		// While armed, no window may reach past the boundary: strict-mode
		// local advances stay strictly below the horizon, so clamping the
		// frontier keeps every pre-capture event strictly before the
		// boundary. GVT < ckAt here, so the window is never empty.
		frontier = e.ckAt
	}

	// Admission: pop each shard's processes inside the window into its run
	// queue. Prep (idle catch-up, horizon, state, window stamp) completes
	// for every admitted process before any worker is woken, so a running
	// process never races the turnover.
	e.window++
	e.windows++
	admitted := 0
	var lone *Proc
	serving, self := int32(0), false // shards with work; is home one of them
	e.wakes = e.wakes[:0]
	for _, sh := range e.shards {
		sh.runq = sh.runq[:0]
		sh.head = 0
		for len(sh.heap) > 0 && sh.heap.min().wake < frontier {
			p := sh.heap.popMin()
			p.catchUp()
			p.horizon = frontier
			p.frontier = frontier
			p.state = stateRunning
			p.epochGen = e.window
			sh.runq = append(sh.runq, p)
			admitted++
			lone = p
		}
		sh.pending.Store(int32(len(sh.runq)))
		if len(sh.runq) == 0 {
			continue
		}
		serving++
		if sh == home {
			self = true
		} else {
			e.wakes = append(e.wakes, sh)
		}
	}
	if admitted == 1 && second > frontier {
		// Singleton-window extension: with every other live process parked
		// at wake >= second, the earliest possible new arrival at the lone
		// runner is second + lookahead, so it may run that far before the
		// next turnover. Its own posts shrink the bound via the
		// horizon-lowering rule in Post (the receiver may then reply). This
		// collapses the window count of imbalanced phases without touching
		// delivery order. The frontier stays at the admission window, so
		// the lookahead contract check on posts is not weakened.
		if second == Forever {
			lone.horizon = Forever
		} else {
			lone.horizon = second + e.lookahead
		}
		if e.ckFn != nil && lone.horizon > e.ckAt {
			// The extension must also respect an armed checkpoint boundary.
			lone.horizon = e.ckAt
		}
	}

	// One worker serves the window per non-empty shard, chosen and counted
	// before the first wake: once any worker runs it may steal another
	// shard's run queue empty, so deciding from live pending counts would
	// race, and a worker that runs dry at once must not see the counter reach
	// zero early. A worker woken to an already-stolen queue simply finds
	// nothing to serve. The window cannot end before the last send, so the
	// next opener never rewrites e.wakes under this loop.
	e.active.Store(serving)
	for _, sh := range e.wakes {
		sh.wake <- struct{}{}
	}
	return self
}

// Run executes all processes until every one has returned. It returns the
// makespan: the largest final clock across processes. On deadlock (all
// processes blocked with empty mailboxes) it returns a *DeadlockError; the
// blocked process coroutines stay parked. Tuning problems (worker count out
// of [1, procs]) surface as a *TuningError. The worker goroutines have all
// exited when Run returns; if a process body panicked, Run panics with the
// body's panic value.
func (e *ParEngine) Run() (Time, error) {
	if len(e.procs) == 0 {
		return 0, nil
	}
	if err := e.tuning.Validate(len(e.procs)); err != nil {
		return 0, err
	}
	e.workers = e.tuning.resolveWorkers(len(e.procs))
	e.stealing = e.tuning.Steal.enabled()
	e.arenaShards()
	var workers sync.WaitGroup
	workers.Add(e.workers)
	for _, sh := range e.shards {
		go func() {
			defer workers.Done()
			e.work(sh)
		}()
	}
	e.openWindow(nil)
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

// bufSeed is the capacity of each per-process message buffer carved from a
// slab at a process's first Run: room for one aggregation batch's worth of
// traffic before a buffer falls back to growing on its own.
const bufSeed = 16

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
	slab := make([]Message, fresh*3*bufSeed)
	carve := func() []Message {
		seg := slab[0:0:bufSeed]
		slab = slab[bufSeed:]
		return seg
	}
	for _, p := range procs {
		if cap(p.drainBuf) != 0 {
			continue
		}
		if p.mailbox.size() == 0 {
			p.mailbox = mailbox{ring: carve(), ovf: msgHeap(carve())}
		}
		p.drainBuf = carve()
	}
}

// arenaShards partitions the processes over the worker shards and sizes every
// per-shard buffer the window turnover touches so the steady state allocates
// nothing: the parked/lowered/run queues get capacity for every process the
// shard owns (they are reset to length zero each window, never beyond that
// bound), the wake scratch gets one slot per shard, and each shard's new
// processes get their message buffers from one per-shard slab (see
// seedBuffers), adjacent for the worker that polls them. The shards and
// their queues survive Reset; only the wake channels, which the run's end
// closes, are new each Run.
func (e *ParEngine) arenaShards() {
	if len(e.shards) != e.workers {
		// One slab for all shard structs (the cache-line pad in parShard
		// keeps neighbors apart within it), pointers into the slab
		// everywhere else.
		shardSlab := make([]parShard, e.workers)
		e.shards = make([]*parShard, e.workers)
		for i := range shardSlab {
			shardSlab[i].id = i
			e.shards[i] = &shardSlab[i]
		}
		e.wakes = make([]*parShard, 0, e.workers)
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
		sh.wake = make(chan struct{}, 1)
		if cap(sh.runq) < n {
			sh.runq = make([]*Proc, 0, n)
			sh.parked = make([]*Proc, 0, n)
			sh.lowered = make([]*Proc, 0, n)
		}
		sh.runq, sh.head = sh.runq[:0], 0
		sh.pending.Store(0)
		sh.parked, sh.lowered = sh.parked[:0], sh.lowered[:0]
		sh.resumes, sh.stolen, sh.steals = 0, 0, 0
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

// NewEngineOf returns an engine of the given kind with default tuning and
// the given lookahead; under the parallel kind a non-positive lookahead
// panics. See NewEngineWith for the tuned, error-returning variant.
func NewEngineOf(kind EngineKind, lookahead Time) Engine {
	if kind == Parallel {
		return NewParallel(lookahead)
	}
	e, _ := NewEngineWith(Sequential, lookahead, Tuning{}) // never fails for Sequential
	return e
}
