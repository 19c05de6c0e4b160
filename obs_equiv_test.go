package dpa

// Observability-equivalence tests: an exported trace and metrics snapshot
// are pure functions of the simulated execution, so they must be
// byte-identical across engines, across repeats, and under seeded faults —
// the same determinism contract the run statistics obey (see DESIGN.md).

import (
	"bytes"
	"testing"

	"dpa/internal/pdg"
	"dpa/internal/tpart"
)

// obsRun executes the treesum workload under one engine and fault plan with
// a fresh tracer and returns the exported Chrome trace and Prometheus
// metrics text.
func obsRun(t *testing.T, spec Spec, eng Engine, fc FaultConfig) (traceOut, metricsOut []byte) {
	t.Helper()
	const nodes = 4
	const depth = 8
	prog := treesumProgram()
	compiled := tpart.Compile(prog, nil)
	if _, err := tpart.Validate(compiled); err != nil {
		t.Fatal(err)
	}
	space := NewSpace(nodes)
	root := buildEquivTree(space, depth)

	tracer := NewTracer(nodes, 0)
	mcfg := withEngine(DefaultT3D(nodes), eng)
	mcfg.Obs = tracer
	mcfg.Faults = fc
	res := pdg.NewResult()
	run := RunPhase(mcfg, space, spec,
		func(rt Runtime, ep *Endpoint, nd *Node) {
			if nd.ID() == 0 {
				tpart.Run(compiled, rt, nd, res, root)
			}
		})
	if run.Err != nil {
		t.Fatal(run.Err)
	}

	var tb, mb bytes.Buffer
	if err := tracer.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := run.Metrics().WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

func TestObsEquivalenceAcrossEngines(t *testing.T) {
	for _, spec := range equivSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			seqTrace, seqMetrics := obsRun(t, spec, Sequential(), FaultConfig{})
			parTrace, parMetrics := obsRun(t, spec, Parallel(), FaultConfig{})
			if !bytes.Equal(seqTrace, parTrace) {
				t.Error("exported traces differ between engines")
			}
			if !bytes.Equal(seqMetrics, parMetrics) {
				t.Errorf("exported metrics differ between engines:\n--- seq\n%s--- par\n%s",
					seqMetrics, parMetrics)
			}
			if len(seqTrace) == 0 || !bytes.Contains(seqTrace, []byte(`"fetch_req"`)) {
				t.Error("trace missing fetch events — hooks not recording?")
			}
		})
	}
}

func TestObsEquivalenceAcrossRepeats(t *testing.T) {
	aTrace, aMetrics := obsRun(t, DPASpec(8), Parallel(Workers(2)), FaultConfig{})
	bTrace, bMetrics := obsRun(t, DPASpec(8), Parallel(Workers(4)), FaultConfig{})
	if !bytes.Equal(aTrace, bTrace) {
		t.Error("repeat runs exported different traces")
	}
	if !bytes.Equal(aMetrics, bMetrics) {
		t.Error("repeat runs exported different metrics")
	}
}

func TestObsEquivalenceUnderFaults(t *testing.T) {
	fc := DefaultFaults(7, 0.05)
	seqTrace, seqMetrics := obsRun(t, DPASpec(8), Sequential(), fc)
	parTrace, parMetrics := obsRun(t, DPASpec(8), Parallel(), fc)
	if !bytes.Equal(seqTrace, parTrace) {
		t.Error("faulty-run traces differ between engines")
	}
	if !bytes.Equal(seqMetrics, parMetrics) {
		t.Error("faulty-run metrics differ between engines")
	}
	if !bytes.Contains(seqTrace, []byte(`"fault"`)) {
		t.Error("faulty run's trace has no fault events")
	}
}
