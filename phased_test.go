package dpa

// Recycled-storage equivalence, over phase loops the tests drive by hand. A
// multi-phase runner hands one PriorStore to every phase, and the store
// recycles the simulated machine (nodes, data caches, mailboxes, engine
// storage, endpoints) and each node's runtime, under every runtime, from
// phase to phase. Storage is not state: a run on
// recycled storage must be indistinguishable — run tables, application
// results, mid-run snapshot bytes, exported traces — from the same run with
// every phase's machine and runtimes built from scratch.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dpa/internal/em3d"
	"dpa/internal/fmm"
	"dpa/internal/graph"
	"dpa/internal/nbody"
	"dpa/internal/sim"
)

// phasedApp is a multi-phase workload whose phase loop the test drives
// itself, so it can choose the store each phase runs with: kinds[k] is phase
// k's prior kind, space(k) the object space it runs on, body(k) its SPMD
// body, commit(k) the owners' update after it, and result a fingerprint of
// the application state.
type phasedApp struct {
	space  func(k int) *Space
	kinds  []string
	body   func(k int) func(rt Runtime, ep *Endpoint, nd *Node)
	commit func(k int)
	result func() string
}

// ownedBlock returns the contiguous index block of ptrs that node owns.
func ownedBlock(ptrs []Ptr, node int) (lo, hi int) {
	for lo < len(ptrs) && int(ptrs[lo].Node) != node {
		lo++
	}
	for hi = lo; hi < len(ptrs) && int(ptrs[hi].Node) == node; hi++ {
	}
	return lo, hi
}

// phasedEM3D is the phase loop of em3d's RunIters, two iterations of E and H
// halves, written with closures (Spawn) or, with templates set, as RunIters
// itself writes it (Template + SpawnT). The graph is the size of the em3d-prior
// checkpoint row's, so every phase is long enough to cross the crash time of
// crashFaults(150_000).
func phasedEM3D(nodes int, templates bool) phasedApp {
	prm := em3d.DefaultParams(320)
	g := em3d.Build(prm, nodes)
	half := func(k int) ([]*em3d.GraphNode, []Ptr) {
		if k%2 == 0 {
			return g.E, g.EPtr
		}
		return g.H, g.HPtr
	}
	acc := make([]float64, prm.NodesPerKind)
	return phasedApp{
		space: func(int) *Space { return g.Space },
		kinds: []string{"E", "H", "E", "H"},
		body: func(k int) func(rt Runtime, ep *Endpoint, nd *Node) {
			ns, ptrs := half(k)
			return func(rt Runtime, ep *Endpoint, nd *Node) {
				update := func(o Object, i, coeff uint64) {
					nd.Charge(sim.Compute, prm.UpdateCost)
					acc[i] += math.Float64frombits(coeff) * o.(*em3d.GraphNode).Value
				}
				id := rt.Template(update)
				lo, hi := ownedBlock(ptrs, nd.ID())
				rt.ForAll(hi-lo, func(j int) {
					n := ns[lo+j]
					for d := range n.Deps {
						i, coeff := uint64(n.Idx), math.Float64bits(n.Coeff[d])
						if templates {
							rt.SpawnT(n.Deps[d], id, i, coeff)
						} else {
							rt.Spawn(n.Deps[d], func(o Object) { update(o, i, coeff) })
						}
					}
				})
			}
		},
		commit: func(k int) {
			ns, _ := half(k)
			for i := range ns {
				ns[i].Value -= acc[i]
			}
			clear(acc)
		},
		result: func() string {
			e, h := g.Values()
			return fmt.Sprintf("%x %x", e, h)
		},
	}
}

// phasedPageRank is the phase loop of graph's RunPageRank, three
// iterations, in either form.
func phasedPageRank(nodes int, templates bool) phasedApp {
	prm := graph.DefaultParams(1024)
	g := graph.Build(prm, nodes)
	n := prm.Vertices
	for _, v := range g.Verts {
		v.Rank = 1 / float64(n)
	}
	acc := make([]float64, n)
	return phasedApp{
		space: func(int) *Space { return g.Space },
		kinds: []string{"pagerank", "pagerank", "pagerank"},
		body: func(int) func(rt Runtime, ep *Endpoint, nd *Node) {
			return func(rt Runtime, ep *Endpoint, nd *Node) {
				pull := func(o Object, v, _ uint64) {
					nd.Charge(sim.Compute, prm.UpdateCost)
					nb := o.(*graph.Vertex)
					acc[v] += nb.Rank / float64(nb.Deg)
				}
				id := rt.Template(pull)
				lo, hi := ownedBlock(g.Ptrs, nd.ID())
				rt.ForAll(hi-lo, func(j int) {
					v := uint64(lo + j)
					for _, u := range g.Adj[v] {
						if templates {
							rt.SpawnT(g.Ptrs[u], id, v, 0)
						} else {
							rt.Spawn(g.Ptrs[u], func(o Object) { pull(o, v, 0) })
						}
					}
				})
			}
		},
		commit: func(int) {
			for v := range g.Verts {
				g.Verts[v].Rank = (1-graph.Damping)/float64(n) + graph.Damping*acc[v]
			}
			clear(acc)
		},
		result: func() string {
			ranks := make([]float64, n)
			for v := range g.Verts {
				ranks[v] = g.Verts[v].Rank
			}
			return fmt.Sprintf("%x", ranks)
		},
	}
}

// phasedFMM is the phase loop of fmm's RunSteps, three steps over the same
// bodies, each redistributed from scratch as RunSteps does (so every phase
// has an object space of its own). FMM has one spelling, templates.
func phasedFMM(nodes int) phasedApp {
	bodies := nbody.Plummer(128, 7)
	prm := fmm.DefaultParams(len(bodies))
	const steps = 3
	ds := make([]*fmm.Dist, steps)
	fields := make([][]complex128, steps)
	pots := make([][]float64, steps)
	for k := range ds {
		ds[k] = fmm.Distribute(bodies, prm, nodes)
		fields[k] = make([]complex128, len(bodies))
		pots[k] = make([]float64, len(bodies))
	}
	return phasedApp{
		space: func(k int) *Space { return ds[k].Space },
		kinds: []string{"fmm", "fmm", "fmm"},
		body: func(k int) func(rt Runtime, ep *Endpoint, nd *Node) {
			return func(rt Runtime, ep *Endpoint, nd *Node) {
				fmm.Phase(rt, ep, nd, ds[k], fields[k], pots[k])
			}
		},
		commit: func(int) {},
		result: func() string { return fmt.Sprintf("%x %x", fields, pots) },
	}
}

// phasedRun is one pass over an app's phases.
type phasedRun struct {
	phases []outcome // each phase's statistics and run table
	total  outcome   // the merged statistics, the app's result and any trace
	snap   []byte    // the snapshot captured at cumulative time at, if at > 0
}

// runPhased runs every phase of a freshly built app. With scratch false one
// store spans the run, as the real runners do, so from the second phase on
// the machine is the previous phase's and every runtime is built on the
// previous phase's storage. With scratch true each phase gets a Clone of the
// running store — the same priors and, by Clone's contract, no machine and no
// runtimes — so every phase's machine and runtimes are built from scratch.
// Every store is closed once its last phase has run.
func runPhased(t *testing.T, build func(int) phasedApp, mcfg MachineConfig, spec Spec,
	scratch bool, at Time, extra ...RunOption) phasedRun {
	t.Helper()
	app := build(mcfg.Nodes)
	var out phasedRun
	if at > 0 {
		mcfg.Checkpoint = captureInto(t, at, &out.snap)
	}
	store := NewPriorStore()
	defer func() { store.Close() }()
	for k, kind := range app.kinds {
		if scratch {
			next := store.Clone()
			store.Close()
			store = next
		}
		opts := append([]RunOption{WithPriors(store, kind)}, extra...)
		run := RunPhase(mcfg, app.space(k), spec, app.body(k), opts...)
		app.commit(k)
		out.phases = append(out.phases, outcome{run: run, table: run.Table(mcfg.ClockHz)})
		out.total.run.Merge(run)
	}
	if at > 0 && out.snap == nil {
		t.Fatalf("checkpoint at t=%d never fired (makespan %d)", at, out.total.run.Makespan)
	}
	out.total.out = app.result()
	return out
}

// inForm fixes the thread form of a phased app's builder.
func inForm(build func(int, bool) phasedApp, templates bool) func(int) phasedApp {
	return func(nodes int) phasedApp { return build(nodes, templates) }
}

// runTraced is runPhased under eng with a tracer attached, and the exported
// trace in its total. The ring keeps each node's last 2048 events and 8192
// spans, a long enough tail to show any reordering at a fraction of the full
// export's cost.
func runTraced(t *testing.T, build func(int) phasedApp, mcfg MachineConfig, spec Spec,
	scratch bool, at Time, eng Engine) phasedRun {
	t.Helper()
	mcfg = withEngine(mcfg, eng)
	mcfg.Obs = NewTracer(mcfg.Nodes, 2048)
	run := runPhased(t, build, mcfg, spec, scratch, at)
	run.total.trace = chromeTrace(t, mcfg.Obs)
	return run
}

func TestRecycledStorageEquivalence(t *testing.T) {
	const nodes = 4
	// EM3D and PageRank are written twice: build spawns closures, twin
	// spawns templates. The rows compare recycled with from-scratch storage
	// on the closure form, and then the two forms with each other.
	apps := []struct {
		name        string
		build, twin func(int) phasedApp
	}{
		{"em3d", inForm(phasedEM3D, false), inForm(phasedEM3D, true)},
		{"pagerank", inForm(phasedPageRank, false), inForm(phasedPageRank, true)},
		{"fmm", phasedFMM, nil},
	}
	specs := []struct {
		name   string
		spec   Spec
		priors bool
	}{{"static", DPASpec(8), false}, {"planned", DPASpec(8, WithShape()), true},
		{"caching", CachingSpec(), false}, {"blocking", BlockingSpec(), false}}
	plans := []struct {
		name   string
		faults FaultConfig
	}{{"clean", FaultConfig{}}, {"loss3", DefaultFaults(7, 0.03)}, {"crash", crashFaults(150_000)}}

	for _, app := range apps {
		for _, sp := range specs {
			for _, plan := range plans {
				t.Run(app.name+"/"+sp.name+"/"+plan.name, func(t *testing.T) {
					mcfg := DefaultT3D(nodes)
					mcfg.Faults = plan.faults
					// The boundary sits five eighths into the run: in a late
					// phase, on storage that has been recycled at least once.
					probe := runPhased(t, app.build, mcfg, sp.spec, false, 0)
					at := probe.total.run.Makespan * 5 / 8
					if at <= probe.phases[0].run.Makespan {
						t.Fatalf("boundary t=%d falls in the first phase (makespan %d): no recycled storage under test",
							at, probe.phases[0].run.Makespan)
					}
					if plan.name == "crash" && probe.total.run.Err == nil {
						t.Fatal("crash plan crashed nobody: the row does not exercise dropped storage")
					}
					if plan.name == "clean" && sp.priors && probe.total.run.RT.PlanPriorHits == 0 {
						t.Fatal("planned row never warm-started: the priors half of the row is vacuous")
					}
					// Under either engine, recycled storage (one store for the
					// run) and from-scratch storage (a Clone per phase: same
					// priors, no machine, no runtimes) are the same run: run
					// tables, results, mid-run snapshot bytes, trace bytes.
					// The app's closure and template spellings are one path
					// too — a closure thread is an ordinary template thread
					// on its parked slot — so they match the same way.
					var snap0 []byte
					for _, eng := range []Engine{Sequential(), Parallel()} {
						recycled := runTraced(t, app.build, mcfg, sp.spec, false, at, eng)
						samePhased(t, fmt.Sprintf("%v: recycled vs from-scratch storage", eng),
							recycled, runTraced(t, app.build, mcfg, sp.spec, true, at, eng))
						if app.twin != nil {
							samePhased(t, fmt.Sprintf("%v: closure vs template form", eng),
								recycled, runTraced(t, app.twin, mcfg, sp.spec, false, at, eng))
						}
						if snap0 == nil {
							snap0 = recycled.snap
						} else if !bytes.Equal(recycled.snap, snap0) {
							t.Fatalf("%v: mid-run snapshot differs from the first engine's", eng)
						}
					}
					// Without a tracer — no observer, no charge hook, no
					// timeline: the path the benchmarks take — recycled and
					// from-scratch storage are the same run too, and the
					// snapshot is the traced runs' byte for byte.
					plain := runPhased(t, app.build, mcfg, sp.spec, false, at)
					samePhased(t, "untraced: recycled vs from-scratch storage",
						plain, runPhased(t, app.build, mcfg, sp.spec, true, at))
					if !bytes.Equal(plain.snap, snap0) {
						t.Fatal("untraced snapshot differs from the traced ones")
					}
					if sp.priors {
						// The check run of a validated phase gets a Clone of
						// the store — priors, no machine, no runtimes — under
						// the other engine, so validating every phase compares
						// recycled against from-scratch across engines;
						// RunPhase panics on any difference. (The body runs
						// twice, so the application's values are not
						// comparable here.)
						runPhased(t, app.build, mcfg, sp.spec, false, 0, WithValidation())
					}
				})
			}
		}
	}
}

// TestValidationLeavesTracerAndCheckpointAlone: the tracer and checkpoint
// ride in the machine config, and a validated phase's check run executes
// under a copy of it. That copy must record into no tracer and fire no
// checkpoint, so a validated run exports the same trace, ends at the same
// tracer offset, delivers its snapshot exactly once (runPhased fails a
// second delivery) and produces the same run tables as the run without
// validation.
func TestValidationLeavesTracerAndCheckpointAlone(t *testing.T) {
	const nodes = 4
	// One EM3D iteration, E then H. Validation runs each body twice, so the
	// application's values are not comparable and the fingerprint is blank.
	twoPhases := func(n int) phasedApp {
		app := phasedEM3D(n, true)
		app.kinds = app.kinds[:2]
		app.result = func() string { return "" }
		return app
	}
	mcfg := DefaultT3D(nodes)
	at := runPhased(t, twoPhases, mcfg, DPASpec(8), false, 0).total.run.Makespan * 3 / 4
	run := func(opts ...RunOption) (phasedRun, Time) {
		cfg := mcfg
		cfg.Obs = NewTracer(nodes, 0)
		r := runPhased(t, twoPhases, cfg, DPASpec(8), false, at, opts...)
		r.total.trace = chromeTrace(t, cfg.Obs)
		return r, cfg.Obs.Offset()
	}
	plain, poff := run()
	checked, coff := run(WithValidation())
	samePhased(t, "validated vs plain", plain, checked)
	if poff != coff || poff != plain.total.run.Makespan {
		t.Fatalf("tracer offset %d validated, %d plain, want the makespan %d", coff, poff, plain.total.run.Makespan)
	}
}

// samePhased fails the test unless two passes over an app are the same run:
// phase by phase, in total, and in their mid-run snapshot bytes.
func samePhased(t *testing.T, what string, a, b phasedRun) {
	t.Helper()
	for k := range a.phases {
		same(t, fmt.Sprintf("%s, phase %d", what, k), a.phases[k], b.phases[k])
	}
	same(t, what, a.total, b.total)
	if !bytes.Equal(a.snap, b.snap) {
		t.Fatalf("%s: mid-run snapshots differ: %s", what, snapDiff(a.snap, b.snap))
	}
}

// TestStoreReusedAcrossShapesRebuilds: a store's machine belongs to the
// complete machine config it was built for, and its runtimes to that machine
// and the spec. Handing the same store to a phase on a machine of another size,
// under another engine or fault plan, or under another spec, must run that
// phase exactly as a new store would — not index a too-short slice, not
// carry storage shaped by the other policy or machine.
func TestStoreReusedAcrossShapesRebuilds(t *testing.T) {
	phase := func(s storeStep, store *PriorStore) outcome {
		app := phasedPageRank(s.nodes, true)
		mcfg := withEngine(DefaultT3D(s.nodes), s.eng)
		mcfg.Faults = s.faults
		run := RunPhase(mcfg, app.space(0), s.spec, app.body(0), WithPriors(store, "pagerank"))
		return outcome{run: run, table: run.Table(mcfg.ClockHz)}
	}
	lossy := DefaultFaults(5, 0.05)
	steps := []storeStep{
		{4, DPASpec(8), Sequential(), FaultConfig{}},
		{6, DPASpec(8), Sequential(), FaultConfig{}},              // more nodes than runtimes held
		{3, DPASpec(8), Sequential(), FaultConfig{}},              // fewer
		{3, DPASpec(8, WithShape()), Sequential(), FaultConfig{}}, // same count, other spec
		{3, DPASpec(8), Sequential(), FaultConfig{}},              // and back
		{3, DPASpec(8), Sequential(), FaultConfig{}},              // same shape twice: this one recycles
		{3, CachingSpec(), Sequential(), FaultConfig{}},           // another runtime
		{3, CachingSpec(), Sequential(), FaultConfig{}},           // recycles
		{3, BlockingSpec(), Sequential(), FaultConfig{}},
		{3, BlockingSpec(), Sequential(), FaultConfig{}},
		{8, DPASpec(8), Sequential(), FaultConfig{}},
		{16, DPASpec(8), Sequential(), FaultConfig{}},
		{8, DPASpec(8), Sequential(), FaultConfig{}},
		{8, DPASpec(8), Parallel(Workers(2)), FaultConfig{}}, // other engine
		{8, DPASpec(8), Parallel(Workers(2)), lossy},         // other fault plan
		{8, DPASpec(8), Parallel(Workers(2)), lossy},         // recycles
		{8, DPASpec(8), Sequential(), lossy},
	}
	store := NewPriorStore()
	defer store.Close()
	for i, s := range steps {
		got := phase(s, store)
		if got.run.Err != nil {
			t.Fatalf("step %d: %v", i, got.run.Err)
		}
		fresh := NewPriorStore()
		same(t, fmt.Sprintf("step %d (%+v): reused vs new store", i, s), got, phase(s, fresh))
		fresh.Close()
	}
}

// storeStep is one phase of TestStoreReusedAcrossShapesRebuilds.
type storeStep struct {
	nodes  int
	spec   Spec
	eng    Engine
	faults FaultConfig
}
