package driver

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

type thing struct{ id int }

func (thing) ByteSize() int { return 8 }

// t3d returns the default T3D config for the given node count, run by eng.
func t3d(nodes int, eng Engine) machine.Config {
	mcfg := machine.DefaultT3D(nodes)
	mcfg.Engine, mcfg.EngineTuning = eng.Kind(), eng.Tuning()
	return mcfg
}

func TestSpecStrings(t *testing.T) {
	if DPASpec(300).String() != "DPA(300)" {
		t.Error(DPASpec(300).String())
	}
	if CachingSpec().String() != "Caching" {
		t.Error(CachingSpec().String())
	}
	if BlockingSpec().String() != "Blocking" {
		t.Error(BlockingSpec().String())
	}
}

func TestRuntimeKinds(t *testing.T) {
	for _, spec := range []Spec{DPASpec(10), CachingSpec(), BlockingSpec()} {
		protos := NewProtos()
		space := gptr.NewSpace(1)
		m := machine.New(machine.DefaultT3D(1))
		defer m.Close()
		m.Run(func(nd *machine.Node) {
			ep := fm.NewEP(protos.Net, nd)
			rt, err := protos.newRuntime(spec, ep, space, nil)
			if err != nil {
				t.Errorf("%s: %v", spec, err)
			}
			if rt == nil {
				t.Errorf("%s: nil runtime", spec)
			}
		})
	}
}

func TestUnknownKindRejected(t *testing.T) {
	protos := NewProtos()
	space := gptr.NewSpace(1)
	m := machine.New(machine.DefaultT3D(1))
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(protos.Net, nd)
		if _, err := protos.newRuntime(Spec{Kind: "bogus"}, ep, space, nil); err == nil {
			t.Error("expected error for unknown kind")
		}
	})
}

func TestRuntimeRejectsInvalidConfig(t *testing.T) {
	protos := NewProtos()
	space := gptr.NewSpace(1)
	m := machine.New(machine.DefaultT3D(1))
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(protos.Net, nd)
		bad := DPASpec(10)
		bad.Core.AggLimit = -3
		if _, err := protos.newRuntime(bad, ep, space, nil); err == nil {
			t.Error("expected error for negative AggLimit")
		}
		badCache := CachingSpec()
		badCache.Caching.Capacity = -1
		if _, err := protos.newRuntime(badCache, ep, space, nil); err == nil {
			t.Error("expected error for negative cache capacity")
		}
	})
}

func TestSpecOptions(t *testing.T) {
	s := DPASpec(300, WithAggLimit(4), WithPipeline(false), WithShape())
	if s.Core.Strip != 300 || s.Core.AggLimit != 4 || s.Core.Pipeline || !s.Core.Planned {
		t.Fatalf("option application: %+v", s.Core)
	}
}

// TestSpecErrorsTyped: every Spec.Validate rejection, from each runtime's
// validator and from the kind switch, matches ErrBadSpec and keeps the
// validator's own message. Planned mode with the LIFO queue discipline is a
// valid spec.
func TestSpecErrorsTyped(t *testing.T) {
	lifoPlanned := DPASpec(50, WithShape())
	lifoPlanned.Core.LIFO = true
	if err := lifoPlanned.Validate(); err != nil {
		t.Errorf("%v: Validate = %v, want nil", lifoPlanned, err)
	}
	badPoll := CachingSpec()
	badPoll.Caching.PollEvery = -1
	badSpawn := BlockingSpec()
	badSpawn.Blocking.SpawnCost = -1
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{DPASpec(-1), "core: Strip must be >= 0 (0 = one strip), got -1"},
		{DPASpec(50, WithAggLimit(-2)), "core: AggLimit must be >= 0 (0 = unlimited), got -2"},
		{badPoll, "caching: PollEvery must be >= 0 (0 = every iteration), got -1"},
		{badSpawn, "blocking: SpawnCost must be non-negative, got -1"},
		{Spec{Kind: "bogus"}, `driver: unknown runtime kind "bogus"`},
	} {
		err := tc.spec.Validate()
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%v: Validate = %v, want an ErrBadSpec", tc.spec, err)
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: message %q, want %q", tc.spec, err, tc.want)
		}
	}
}

func TestRunPhaseMergesAllNodes(t *testing.T) {
	const nodes = 4
	space := gptr.NewSpace(nodes)
	// Each node spawns one local thread: the merged stats must count all.
	ptrs := make([]gptr.Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, thing{id: i})
	}
	run := RunPhase(machine.DefaultT3D(nodes), space, DPASpec(10),
		func(rt Runtime, ep *fm.EP, nd *machine.Node) {
			rt.Spawn(ptrs[nd.ID()], func(o gptr.Object) {})
			rt.Drain()
		})
	if run.RT.ThreadsRun != nodes {
		t.Fatalf("merged ThreadsRun = %d, want %d", run.RT.ThreadsRun, nodes)
	}
	if len(run.Nodes) != nodes {
		t.Fatalf("breakdowns for %d nodes", len(run.Nodes))
	}
}

// TestEngineValues covers the first-class Engine API: constructors, option
// folding, and naming.
func TestEngineValues(t *testing.T) {
	if e := Sequential(); e.Kind() != sim.Sequential || e.String() != "sequential" {
		t.Fatalf("Sequential() = %v (%s)", e.Kind(), e)
	}
	e := Parallel(Workers(4))
	if e.Kind() != sim.Parallel {
		t.Fatal("Parallel() kind")
	}
	if tn := e.Tuning(); tn != (sim.Tuning{Workers: 4}) {
		t.Fatalf("tuning not folded: %+v", tn)
	}
	if e.String() != "parallel(workers=4)" {
		t.Fatalf("String() = %q", e.String())
	}
	if Parallel().String() != "parallel" {
		t.Fatalf("Parallel().String() = %q", Parallel())
	}
}

// TestRunPhaseEngineValue runs the same phase under several Engine values,
// selected through the machine config; all must agree.
func TestRunPhaseEngineValue(t *testing.T) {
	const nodes = 4
	space := gptr.NewSpace(nodes)
	ptrs := make([]gptr.Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, thing{id: i})
	}
	phase := func(eng Engine) stats.Run {
		return RunPhase(t3d(nodes, eng), space, DPASpec(10),
			func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				for _, p := range ptrs {
					rt.Spawn(p, func(o gptr.Object) {})
				}
				rt.Drain()
			})
	}
	base := phase(Sequential())
	for _, eng := range []Engine{Parallel(), Parallel(Workers(2)), Parallel(Workers(nodes))} {
		if diff := base.Diff(phase(eng)); diff != "" {
			t.Fatalf("%v run diverges from sequential: %s", eng, diff)
		}
	}
	par := phase(Parallel(Workers(2)))
	if par.Host == nil || par.Host.Workers != 2 {
		t.Fatalf("parallel run host counters = %+v, want 2 workers", par.Host)
	}
	if h := base.Host; h == nil || h.Workers != 1 || h.Windows != 0 || len(h.PerWorker) != 1 || h.Resumes() < nodes {
		t.Fatalf("sequential run host counters = %+v, want one worker, no windows, every node resumed", h)
	}
}

// TestRunPhaseRejectsBadTuning: an out-of-range worker count must surface as
// a typed-config panic at machine construction, not a hang or a panic deep
// in internal/sim.
func TestRunPhaseRejectsBadTuning(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for workers > nodes")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, sim.ErrBadTuning) {
			t.Fatalf("panic %v, want an ErrBadTuning error", r)
		}
	}()
	space := gptr.NewSpace(2)
	RunPhase(t3d(2, Parallel(Workers(3))), space, DPASpec(10),
		func(rt Runtime, ep *fm.EP, nd *machine.Node) {})
}

func TestRunPhaseCrossTraffic(t *testing.T) {
	const nodes = 3
	space := gptr.NewSpace(nodes)
	ptrs := make([]gptr.Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, thing{id: i})
	}
	for _, spec := range []Spec{DPASpec(10), CachingSpec(), BlockingSpec()} {
		counts := make([]int, nodes)
		RunPhase(machine.DefaultT3D(nodes), space, spec,
			func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				// Every node reads every object, local and remote.
				me := nd.ID()
				for _, p := range ptrs {
					rt.Spawn(p, func(o gptr.Object) { counts[me]++ })
				}
				rt.Drain()
			})
		for i, c := range counts {
			if c != nodes {
				t.Errorf("%s: node %d ran %d threads, want %d", spec, i, c, nodes)
			}
		}
	}
}

// TestPriorStoreRuntimeLifetime pins when a store's runtimes and machine are
// recycled and when they are rebuilt or dropped, one rule for every runtime.
// Runtimes: kept across phases of one spec and node count, on the same
// machine or another (another engine); rebuilt for another spec (another
// runtime, or another DPA policy) or another node count; absent from a
// Clone; dropped with the machine after a degraded phase. The machine: kept
// while the machine config repeats, under any runtime; rebuilt when it
// changes. A kind's prior tables are rebuilt cold for another node count.
func TestPriorStoreRuntimeLifetime(t *testing.T) {
	space := gptr.NewSpace(4)
	ptrs := make([]gptr.Ptr, 4)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, thing{id: i})
	}
	store := NewPriorStore()
	defer store.Close()
	phaseOn := func(mcfg machine.Config, spec Spec) stats.Run {
		return RunPhase(mcfg, space, spec,
			func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				for _, p := range ptrs[:mcfg.Nodes] {
					rt.Spawn(p, func(gptr.Object) {})
				}
				rt.Drain()
			}, WithPriors(store, "k"))
	}
	phase := func(nodes int, spec Spec) stats.Run { return phaseOn(machine.DefaultT3D(nodes), spec) }
	held := func() Runtime {
		if len(store.rts) == 0 {
			return nil
		}
		return store.rts[0]
	}

	phase(4, CachingSpec())
	mach, first := store.mach, held()
	if mach == nil || first == nil {
		t.Fatal("a caching phase left no machine or runtimes for the next")
	}
	phase(4, CachingSpec())
	if store.mach != mach || held() != first {
		t.Fatal("second caching phase rebuilt its machine or runtimes instead of recycling them")
	}
	for _, spec := range []Spec{BlockingSpec(), DPASpec(10)} {
		phase(4, spec)
		if store.mach != mach {
			t.Fatalf("a %v phase on the same machine config rebuilt the machine", spec)
		}
		if held() == first {
			t.Fatalf("a %v phase recycled the runtimes of the phase before", spec)
		}
		first = held()
	}
	phase(4, DPASpec(10))
	if held() != first || len(store.rts) != 4 {
		t.Fatal("second DPA phase of the same shape rebuilt the runtimes instead of recycling them")
	}
	phaseOn(t3d(4, Parallel(Workers(2))), DPASpec(10))
	if store.mach == mach || held() != first {
		t.Fatal("a phase under another engine kept the machine or rebuilt the runtimes")
	}
	mach = store.mach
	if c := store.Clone(); c.mach != nil || c.rts != nil {
		t.Fatal("Clone copied run storage")
	}
	phase(3, DPASpec(10))
	if store.mach == mach || held() == first || len(store.rts) != 3 {
		t.Fatal("a 3-node phase ran on the 4-node machine or its runtimes")
	}
	resized := held()
	phase(3, DPASpec(10, WithShape()))
	if held() == resized {
		t.Fatal("a phase under another spec recycled runtimes built for the first")
	}

	// A degraded caching phase: every message is lost, the retry budget runs
	// out, owners become unreachable and the run carries an error.
	lossy := machine.DefaultT3D(3)
	lossy.Faults = machine.DefaultFaults(1, 1.0)
	if run := phaseOn(lossy, CachingSpec()); run.Err == nil {
		t.Fatal("total message loss produced a clean run")
	}
	if store.mach != nil || store.rts != nil {
		t.Fatal("run storage survived a degraded phase")
	}

	// A kind's prior tables follow the node count as the runtimes do: a phase
	// on more nodes than they were built for must not index past them, and
	// one on fewer must start cold, not warm from another machine's history.
	big := gptr.NewSpace(8)
	objs := make([]gptr.Ptr, 8)
	for i := range objs {
		objs[i] = big.Alloc(i, thing{id: i})
	}
	priors := NewPriorStore()
	defer priors.Close()
	loop := func(nodes int) stats.Run {
		return RunPhase(machine.DefaultT3D(nodes), big, DPASpec(10, WithShape()),
			func(rt Runtime, ep *fm.EP, nd *machine.Node) {
				rt.ForAll(nodes, func(i int) {
					rt.Spawn(objs[(nd.ID()+i)%nodes], func(gptr.Object) {})
				})
			}, WithPriors(priors, "k"))
	}
	for _, c := range []struct {
		nodes int
		warm  bool
	}{{4, false}, {4, true}, {8, false}, {8, true}, {4, false}} {
		if hits := loop(c.nodes).RT.PlanPriorHits; (hits > 0) != c.warm {
			t.Fatalf("phase on %d nodes: %d prior hits, want warm=%v", c.nodes, hits, c.warm)
		}
	}
}

// TestBadThreadRejectedAtCreationSite: a nil thread, a nil template body and
// a template id the runtime does not know panic at the call that passed them,
// with a message naming the culprit — not one round trip later inside the
// scheduler with a bare nil dereference. Under every runtime and both engines
// the panic reaches RunPhase's caller.
func TestBadThreadRejectedAtCreationSite(t *testing.T) {
	space := gptr.NewSpace(2)
	remote := space.Alloc(1, thing{id: 1})
	// stale is a template id of an earlier phase on the same store, under the
	// sequential engine: every runtime is recycled, on another machine too,
	// and the id must have died with its phase.
	stale := func(spec Spec) (*PriorStore, int) {
		store, id := NewPriorStore(), 0
		RunPhase(machine.DefaultT3D(2), space, spec, func(rt Runtime, ep *fm.EP, nd *machine.Node) {
			if nd.ID() == 0 {
				id = rt.Template(func(gptr.Object, uint64, uint64) {})
			}
		}, WithPriors(store, "k"))
		return store, id
	}
	cases := []struct {
		name string
		bad  func(rt Runtime, staleID int)
		want map[Kind]string
	}{
		{"Spawn(p, nil)", func(rt Runtime, _ int) { rt.Spawn(remote, nil) }, map[Kind]string{
			DPA: "core: Spawn with nil thread", Caching: "caching: Spawn with nil thread", Blocking: "blocking: Spawn with nil thread"}},
		{"Template(nil)", func(rt Runtime, _ int) { rt.Template(nil) }, map[Kind]string{
			DPA: "core: Template with nil body", Caching: "caching: Template with nil body", Blocking: "blocking: Template with nil body"}},
		{"SpawnT(never registered)", func(rt Runtime, _ int) { rt.SpawnT(remote, 7, 0, 0) }, map[Kind]string{
			DPA:     "core: SpawnT with unknown template id 7 (0 registered this phase",
			Caching: "caching: SpawnT with unknown template id 7 (0 registered this phase", Blocking: "blocking: SpawnT with unknown template id 7 (0 registered this phase"}},
		{"SpawnT(stale)", func(rt Runtime, staleID int) {
			rt.Template(func(gptr.Object, uint64, uint64) {}) // this phase has a template of its own
			rt.SpawnT(remote, staleID, 0, 0)
		}, map[Kind]string{DPA: "core: SpawnT with unknown template id 1 (1 registered this phase, ids 2..2)",
			Caching:  "caching: SpawnT with unknown template id 1 (1 registered this phase, ids 2..2)",
			Blocking: "blocking: SpawnT with unknown template id 1 (1 registered this phase, ids 2..2)"}},
	}
	for _, spec := range []Spec{DPASpec(10), DPASpec(10, WithShape()), CachingSpec(), BlockingSpec()} {
		for _, eng := range []Engine{Sequential(), Parallel(Workers(2))} {
			for _, c := range cases {
				want, ok := c.want[spec.Kind]
				if !ok {
					continue
				}
				t.Run(spec.String()+"/"+eng.String()+"/"+c.name, func(t *testing.T) {
					store, staleID := stale(spec)
					defer func() {
						got := fmt.Sprint(recover())
						if !strings.HasPrefix(got, want) {
							t.Fatalf("panic %q, want one starting %q", got, want)
						}
					}()
					RunPhase(t3d(2, eng), space, spec, func(rt Runtime, ep *fm.EP, nd *machine.Node) {
						if nd.ID() == 0 {
							c.bad(rt, staleID)
							rt.Drain()
						}
					}, WithPriors(store, "k"))
					t.Fatal("the phase ran to completion")
				})
			}
		}
	}
}

// TestValidationRejectsAllocDuringPhase: a phase that allocates in the global
// space runs as it always did, but under WithValidation it panics — the space
// must be read-only while a phase runs, because every node reads every heap
// at dispatch.
func TestValidationRejectsAllocDuringPhase(t *testing.T) {
	space := gptr.NewSpace(2)
	remote := space.Alloc(1, thing{id: 1})
	phase := func(opts ...RunOption) {
		RunPhase(machine.DefaultT3D(2), space, DPASpec(10), func(rt Runtime, ep *fm.EP, nd *machine.Node) {
			if nd.ID() == 0 {
				rt.Spawn(remote, func(gptr.Object) { space.Alloc(0, thing{id: 2}) })
				rt.Drain()
			}
		}, opts...)
	}
	phase()
	defer func() {
		const want = "driver: the phase changed the space from 2 to 3 objects"
		if got := fmt.Sprint(recover()); !strings.HasPrefix(got, want) {
			t.Fatalf("panic %q, want one starting %q", got, want)
		}
	}()
	phase(WithValidation())
	t.Fatal("a phase that allocated passed validation")
}
