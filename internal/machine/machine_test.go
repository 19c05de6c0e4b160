package machine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dpa/internal/sim"
)

func TestDeriveTorus(t *testing.T) {
	cases := []struct {
		n    int
		want [3]int
	}{
		{1, [3]int{1, 1, 1}},
		{2, [3]int{2, 1, 1}},
		{4, [3]int{2, 2, 1}},
		{8, [3]int{2, 2, 2}},
		{16, [3]int{4, 2, 2}},
		{64, [3]int{4, 4, 4}},
	}
	for _, c := range cases {
		if got := deriveTorus(c.n); got != c.want {
			t.Errorf("deriveTorus(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHops(t *testing.T) {
	cfg := DefaultT3D(64)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if h := cfg.Hops(0, 0); h != 0 {
		t.Errorf("Hops(0,0) = %d", h)
	}
	if h := cfg.Hops(0, 1); h != 1 {
		t.Errorf("Hops(0,1) = %d, want 1", h)
	}
	// 4x4x4 torus: node 3 is at x=3 which wraps to 1 hop from x=0.
	if h := cfg.Hops(0, 3); h != 1 {
		t.Errorf("Hops(0,3) = %d, want 1 (torus wrap)", h)
	}
	// Farthest point in a 4x4x4 torus is (2,2,2) = 6 hops.
	far := 2 + 2*4 + 2*16
	if h := cfg.Hops(0, far); h != 6 {
		t.Errorf("Hops(0,%d) = %d, want 6", far, h)
	}
}

func TestHopsSymmetric(t *testing.T) {
	cfg := DefaultT3D(32)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		x, y := int(a)%32, int(b)%32
		return cfg.Hops(x, y) == cfg.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	cfg := DefaultT3D(16)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%16, int(b)%16, int(c)%16
		return cfg.Hops(x, z) <= cfg.Hops(x, y)+cfg.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(c *Config)
		bad   bool
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, true},
		{"undersized torus", func(c *Config) { c.Torus = [3]int{1, 1, 1} }, true},
		{"zero bandwidth", func(c *Config) { c.BytesPerCycle = 0 }, true},
		{"negative cost", func(c *Config) { c.SendOverhead = -1 }, true},
		{"parallel engine with zero lookahead", func(c *Config) {
			c.Engine, c.SendOverhead, c.LatencyBase = sim.Parallel, 0, 0
		}, true},
		{"negative cache lines", func(c *Config) { c.CacheLines = -1 }, true},
		{"cache lines over the cap", func(c *Config) { c.CacheLines = maxCacheLines + 1 }, true},
		{"negative cache hit", func(c *Config) { c.CacheHit = -1 }, true},
		{"negative cache miss", func(c *Config) { c.CacheMiss = -1 }, true},
		{"negative hash cost", func(c *Config) { c.HashCost = -1 }, true},
		{"zero cache lines", func(c *Config) { c.CacheLines = 0 }, false},
		{"cache lines at the cap", func(c *Config) { c.CacheLines = maxCacheLines }, false},
		{"free cache", func(c *Config) { c.CacheHit, c.CacheMiss, c.HashCost = 0, 0, 0 }, false},
	} {
		cfg := DefaultT3D(4)
		tc.patch(&cfg)
		if err := cfg.Validate(); (err != nil) != tc.bad {
			t.Errorf("%s: Validate() = %v, want an error: %v", tc.name, err, tc.bad)
		}
	}
}

// TestValidateEngineTuning pins the typed rejection of bad engine tuning at
// config-validation time: errors.Is-matchable, never a panic from deep in
// internal/sim. Tuning is checked only under the parallel engine, the one
// that uses it.
func TestValidateEngineTuning(t *testing.T) {
	cfg := func(eng sim.EngineKind, workers int) Config {
		c := DefaultT3D(4)
		c.Engine, c.EngineTuning.Workers = eng, workers
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		bad  bool
	}{
		{"negative workers", cfg(sim.Parallel, -1), true},
		{"workers above nodes", cfg(sim.Parallel, 5), true},
		{"workers in range", cfg(sim.Parallel, 2), false},
		{"auto workers", cfg(sim.Parallel, 0), false},
		{"sequential ignores workers", cfg(sim.Sequential, 100), false},
	} {
		err := tc.cfg.Validate()
		if !tc.bad {
			if err != nil {
				t.Errorf("%s: valid config rejected: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, sim.ErrBadTuning) {
			t.Errorf("%s: err = %v, want one wrapping sim.ErrBadTuning", tc.name, err)
		}
	}
}

// TestMachineRunWithTuning runs a machine under explicit tuning and checks
// results match the sequential engine's, and that the host scheduling
// counters are exposed: one worker is the sequential engine, counters
// included, and two open windows.
func TestMachineRunWithTuning(t *testing.T) {
	body := func(n *Node) {
		if n.ID()%2 == 0 {
			n.Charge(sim.Compute, 100)
			n.Send(n.ID()+1, 7, nil, 16)
			return
		}
		n.WaitMessage()
	}
	run := func(cfg Config) ([]sim.Time, []sim.WorkerStats, int64) {
		m := New(cfg)
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
		clocks := make([]sim.Time, cfg.Nodes)
		for i, n := range m.Nodes() {
			clocks[i] = n.Now()
		}
		return clocks, m.WorkerStats(), m.EngineWindows()
	}

	seqCfg := DefaultT3D(4)
	seqClocks, seqWS, seqWindows := run(seqCfg)
	if len(seqWS) != 1 || seqWS[0].Procs != 4 || seqWS[0].Resumes < 4 || seqWindows != 0 {
		t.Fatalf("sequential engine worker stats = %+v, windows %d; want one row of 4 procs with every proc resumed, no windows",
			seqWS, seqWindows)
	}

	oneCfg := DefaultT3D(4)
	oneCfg.Engine = sim.Parallel
	oneCfg.EngineTuning = sim.Tuning{Workers: 1}
	oneClocks, oneWS, oneWindows := run(oneCfg)
	if !slices.Equal(oneClocks, seqClocks) || !slices.Equal(oneWS, seqWS) || oneWindows != 0 {
		t.Fatalf("one worker: clocks %v, worker stats %+v, windows %d; want the sequential engine's %v, %+v, 0",
			oneClocks, oneWS, oneWindows, seqClocks, seqWS)
	}

	parCfg := DefaultT3D(4)
	parCfg.Engine = sim.Parallel
	parCfg.EngineTuning = sim.Tuning{Workers: 2}
	parClocks, parWS, windows := run(parCfg)
	for i := range seqClocks {
		if parClocks[i] != seqClocks[i] {
			t.Fatalf("node %d clock diverges: %d vs %d", i, parClocks[i], seqClocks[i])
		}
	}
	if len(parWS) != 2 {
		t.Fatalf("worker stats for %d shards, want 2", len(parWS))
	}
	if windows == 0 {
		t.Fatal("no windows recorded")
	}
}

func TestLookahead(t *testing.T) {
	cfg := DefaultT3D(4)
	if got := cfg.Lookahead(); got != cfg.SendOverhead+cfg.LatencyBase {
		t.Errorf("Lookahead = %d", got)
	}
}

func TestParallelEngineMachineRun(t *testing.T) {
	// The same SPMD program must produce identical charges on both engines.
	body := func(n *Node) {
		if n.ID() == 0 {
			n.Charge(sim.Compute, 100)
			n.Send(1, 7, nil, 16)
			return
		}
		n.WaitMessage()
	}
	var spans [2]sim.Time
	var charges [2][sim.NumCategories]sim.Time
	for i, kind := range []sim.EngineKind{sim.Sequential, sim.Parallel} {
		cfg := DefaultT3D(2)
		cfg.Engine = kind
		m := New(cfg)
		spans[i], _ = m.Run(body)
		charges[i] = m.Nodes()[1].Charges()
	}
	if spans[0] != spans[1] {
		t.Errorf("makespans differ: %d vs %d", spans[0], spans[1])
	}
	if charges[0] != charges[1] {
		t.Errorf("receiver charges differ: %v vs %v", charges[0], charges[1])
	}
}

func TestSendReceiveCosts(t *testing.T) {
	cfg := DefaultT3D(2)
	m := New(cfg)
	var sendCharged, recvCharged sim.Time
	makespan, _ := m.Run(func(n *Node) {
		if n.ID() == 0 {
			n.Send(1, 7, "payload", 100)
			sendCharged = n.Charges()[sim.SendOv]
		} else {
			ms := n.WaitMessage()
			if len(ms) != 1 || ms[0].Handler != 7 || ms[0].Bytes != 100 {
				t.Errorf("bad receive: %+v", ms)
			}
			recvCharged = n.Charges()[sim.RecvOv]
		}
	})
	if sendCharged != cfg.SendOverhead {
		t.Errorf("send overhead charged %d, want %d", sendCharged, cfg.SendOverhead)
	}
	if recvCharged != cfg.RecvOverhead {
		t.Errorf("recv overhead charged %d, want %d", recvCharged, cfg.RecvOverhead)
	}
	// Makespan must be at least overheads plus transit (latency + bytes).
	min := cfg.SendOverhead + cfg.LatencyBase + sim.Time(100)
	if makespan < min {
		t.Errorf("makespan %d < minimum %d", makespan, min)
	}
}

func TestMessageAccounting(t *testing.T) {
	m := New(DefaultT3D(2))
	m.Run(func(n *Node) {
		if n.ID() == 0 {
			for i := 0; i < 5; i++ {
				n.Send(1, 0, nil, 10)
			}
		} else {
			got := 0
			for got < 5 {
				got += len(n.WaitMessage())
			}
		}
	})
	n0, n1 := m.Nodes()[0], m.Nodes()[1]
	if n0.MsgsSent != 5 || n0.BytesSent != 50 {
		t.Errorf("sender stats: %d msgs %d bytes", n0.MsgsSent, n0.BytesSent)
	}
	if n1.MsgsRecv != 5 || n1.BytesRecv != 50 {
		t.Errorf("receiver stats: %d msgs %d bytes", n1.MsgsRecv, n1.BytesRecv)
	}
}

func TestBiggerMessagesArriveLater(t *testing.T) {
	cfg := DefaultT3D(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	small := cfg.TransitTime(0, 1, 8)
	big := cfg.TransitTime(0, 1, 4096)
	if big <= small {
		t.Errorf("transit(4096)=%d <= transit(8)=%d", big, small)
	}
	if big-small != sim.Time(4096-8) { // 1 byte/cycle
		t.Errorf("bandwidth term wrong: diff=%d", big-small)
	}
}

// TestDataCacheDirectMapped drives Node.Touch through a machine's runs. An
// access names the line its key lands on when keys are placed over placed
// lines, and which of that line's keys it is: {1, 0} and {1, 1} are two
// objects sharing line 1. The placement is the Fibonacci hash, computed here
// independently of the cache.
func TestDataCacheDirectMapped(t *testing.T) {
	type access struct {
		line, nth int
		hit       bool
	}
	keyOn := func(placed, line, nth int) uint64 {
		shift := 64 - bits.TrailingZeros(uint(placed))
		for k := uint64(0); ; k++ {
			if int(k*0x9E3779B97F4A7C15>>shift) == line {
				if nth == 0 {
					return k
				}
				nth--
			}
		}
	}
	for _, tc := range []struct {
		name          string
		lines, placed int // Config.CacheLines, and the lines keys are placed over
		phases        [][]access
	}{
		{"a re-touch hits", 4, 4, [][]access{{{0, 0, false}, {0, 0, true}, {0, 0, true}}}},
		{"two keys on one line evict each other", 4, 4,
			[][]access{{{1, 0, false}, {1, 1, false}, {1, 0, false}, {1, 1, false}}}},
		{"a key on another line survives", 4, 4,
			[][]access{{{0, 0, false}, {2, 0, false}, {0, 1, false}, {2, 0, true}, {0, 0, false}}}},
		{"lines round up to a power of two", 3, 4, [][]access{{
			{0, 0, false}, {1, 0, false}, {2, 0, false}, {3, 0, false},
			{0, 0, true}, {1, 0, true}, {2, 0, true}, {3, 0, true}, {3, 1, false}, {3, 0, false},
		}}},
		{"zero lines is one line", 0, 1, [][]access{{{0, 0, false}, {0, 0, true}, {0, 1, false}, {0, 0, false}}}},
		{"a later run starts empty", 4, 4, [][]access{
			{{0, 0, false}, {0, 0, true}, {3, 0, false}},
			{},
			{{0, 0, false}, {0, 0, true}, {3, 0, false}},
		}},
	} {
		cfg := DefaultT3D(2)
		cfg.CacheLines = tc.lines
		m := New(cfg)
		for ph, accesses := range tc.phases {
			if _, err := m.Run(func(n *Node) {
				if n.ID() != 0 {
					return
				}
				for i, a := range accesses {
					before := n.CacheHits
					n.Touch(keyOn(tc.placed, a.line, a.nth))
					if got := n.CacheHits > before; got != a.hit {
						t.Errorf("%s: phase %d, access %d (line %d, key %d): hit = %v, want %v",
							tc.name, ph, i, a.line, a.nth, got, a.hit)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			if n := m.Nodes()[0]; n.CacheHits+n.CacheMisses != int64(len(accesses)) {
				t.Errorf("%s: phase %d: %d hits and %d misses for %d accesses", tc.name, ph, n.CacheHits, n.CacheMisses, len(accesses))
			}
		}
		m.Close()
	}
}

// TestTouchSetBounded checks that the keys a node's Touch remembers stay
// within the cache's lines whatever it is fed: the tag array keeps its carved
// length and capacity, holds at most one key per line, each on the line its
// hash picks, and the last key touched is resident.
func TestTouchSetBounded(t *testing.T) {
	cfg := DefaultT3D(1)
	cfg.CacheLines = 8
	m := New(cfg)
	defer m.Close()
	f := func(keys []uint16) bool {
		ok := true
		if _, err := m.Run(func(n *Node) {
			touched := map[uint64]bool{}
			for _, k := range keys {
				n.Touch(uint64(k))
				touched[uint64(k)] = true
			}
			c := &n.cache
			if len(c.tags) != 8 || cap(c.tags) != 8 {
				ok = false
				return
			}
			for line, tag := range c.tags {
				if tag == 0 || c.stale {
					continue
				}
				key := tag - 1
				if !touched[key] || int(key*0x9E3779B97F4A7C15>>c.shift) != line {
					ok = false
				}
			}
			if len(keys) > 0 && !c.touch(uint64(keys[len(keys)-1])) {
				ok = false
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTouchChargesHitVsMiss(t *testing.T) {
	cfg := DefaultT3D(1)
	m := New(cfg)
	m.Run(func(n *Node) {
		n.Touch(42) // miss
		before := n.Charges()[sim.MemOv]
		if before != cfg.CacheMiss {
			t.Errorf("first touch charged %d, want miss %d", before, cfg.CacheMiss)
		}
		n.Touch(42) // hit
		after := n.Charges()[sim.MemOv]
		if after-before != cfg.CacheHit {
			t.Errorf("second touch charged %d, want hit %d", after-before, cfg.CacheHit)
		}
	})
}

func TestSeconds(t *testing.T) {
	cfg := DefaultT3D(1)
	if got := cfg.Seconds(150e6); got != 1.0 {
		t.Errorf("Seconds(150e6) = %v, want 1.0", got)
	}
}

// phaseProgram is phase k of a multi-phase test program: every node touches
// its cache, computes, sends around a ring whose stride depends on k and
// polls, then waits out a deadline. It never blocks on a peer, so it
// completes under a crash plan, and messages that arrive after the deadline
// stay in their mailboxes — state a recycled machine must not carry over.
func phaseProgram(k int) func(n *Node) {
	return func(n *Node) {
		for r := 0; r < 3+k; r++ {
			n.Touch(uint64(n.ID()*7 + r*k))
			n.Charge(sim.Compute, sim.Time(100*(n.ID()+1+k)))
			n.Send((n.ID()+1+k)%n.N(), 0, nil, 16*(r+1))
			n.Poll()
		}
		deadline := sim.Time(3000 * (k + 1))
		for n.Now() < deadline {
			n.WaitMessageUntil(deadline)
		}
	}
}

// phaseRecord runs one phase on m and returns everything the phase left
// behind: makespan, error, the engine's process records and every node's
// machine-level state, plus the snapshot a checkpoint armed at ck (0: none)
// captured mid-phase.
func phaseRecord(t *testing.T, m *Machine, k int, ck sim.Time) string {
	t.Helper()
	var mid sim.SnapWriter
	if ck > 0 {
		m.CheckpointAt(ck, func() {
			m.SnapshotProcs(&mid)
			for _, nd := range m.Nodes() {
				nd.EncodeSnapshot(&mid)
			}
		})
	}
	span, err := m.Run(phaseProgram(k))
	if ck > 0 && ck < span && len(mid.Bytes()) == 0 {
		t.Fatalf("phase %d: checkpoint at %d did not fire in a run of %d cycles", k, ck, span)
	}
	var w sim.SnapWriter
	m.SnapshotProcs(&w)
	for _, nd := range m.Nodes() {
		nd.EncodeSnapshot(&w)
	}
	return fmt.Sprintf("makespan=%d err=%v state=%x mid=%x", span, err, w.Bytes(), mid.Bytes())
}

// TestRunRecyclesAcrossPhases runs one Machine for three phases under both
// engines, with and without a crash plan, and requires each phase to equal
// the same phase on a new Machine: Run starts afresh in virtual time while
// reusing nodes, caches, mailboxes and engine storage. Phase 0 arms a
// checkpoint past its end, which must not fire in phase 1; phase 1 captures
// one mid-phase.
func TestRunRecyclesAcrossPhases(t *testing.T) {
	crash := sim.FaultParams{Seed: 5, CrashRate: 0.4, CrashAt: 1500}
	for _, faults := range []sim.FaultParams{{}, crash} {
		for _, kind := range []sim.EngineKind{sim.Sequential, sim.Parallel} {
			cfg := DefaultT3D(6)
			cfg.Engine = kind
			cfg.EngineTuning.Workers = 2
			cfg.Faults.FaultParams = faults
			checkpoints := []sim.Time{1 << 40, 2000, 0}
			recycled := New(cfg)
			crashed := 0
			for k, ck := range checkpoints {
				got := phaseRecord(t, recycled, k, ck)
				if want := phaseRecord(t, New(cfg), k, ck); got != want {
					t.Fatalf("%v, faults %+v, phase %d: recycled machine\n%s\nfresh machine\n%s", kind, faults, k, got, want)
				}
				for _, nd := range recycled.Nodes() {
					if nd.Crashed {
						crashed++
					}
				}
			}
			if (faults.CrashRate > 0) != (crashed > 0) {
				t.Fatalf("%v, faults %+v: %d node crashes over three phases", kind, faults, crashed)
			}
		}
	}
}

func TestSPMDAllNodesRun(t *testing.T) {
	const n = 8
	m := New(DefaultT3D(n))
	ran := make([]bool, n)
	m.Run(func(nd *Node) {
		ran[nd.ID()] = true
		if nd.N() != n {
			t.Errorf("N() = %d, want %d", nd.N(), n)
		}
	})
	for i, r := range ran {
		if !r {
			t.Errorf("node %d did not run", i)
		}
	}
}

func TestTimelineRecordsBins(t *testing.T) {
	cfg := DefaultT3D(2)
	cfg.TraceBins = 100
	m := New(cfg)
	m.Run(func(n *Node) {
		if n.ID() == 0 {
			n.Charge(sim.Compute, 250) // bins 0,1,2
			n.Send(1, 0, nil, 4)
		} else {
			n.WaitMessage() // idle until arrival
		}
	})
	tl := m.Trace()
	if tl == nil {
		t.Fatal("no timeline")
	}
	// Node 0: 100 compute in bin 0, 100 in bin 1, 50 in bin 2.
	if got := tl.Bins[0][0][sim.Compute]; got != 100 {
		t.Errorf("bin 0 compute = %d", got)
	}
	if got := tl.Bins[0][2][sim.Compute]; got != 50 {
		t.Errorf("bin 2 compute = %d", got)
	}
	// Node 1 idled from 0 to the arrival.
	var idle sim.Time
	for _, b := range tl.Bins[1] {
		idle += b[sim.Idle]
	}
	if idle == 0 {
		t.Error("receiver idle not recorded")
	}
}

func TestGanttRendering(t *testing.T) {
	cfg := DefaultT3D(2)
	cfg.TraceBins = 10
	m := New(cfg)
	m.Run(func(n *Node) {
		if n.ID() == 0 {
			n.Charge(sim.Compute, 1000)
			n.Send(1, 0, nil, 4)
		} else {
			n.WaitMessage()
		}
	})
	rows := m.Trace().Gantt(20)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0]) != 20 || len(rows[1]) != 20 {
		t.Fatalf("row widths %d/%d", len(rows[0]), len(rows[1]))
	}
	// Node 0 is dominated by compute, node 1 by idle.
	if !strings.Contains(rows[0], "#") {
		t.Errorf("node 0 row %q has no compute", rows[0])
	}
	if !strings.Contains(rows[1], ".") {
		t.Errorf("node 1 row %q has no idle", rows[1])
	}
}
