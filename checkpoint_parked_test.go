package dpa

import (
	"bytes"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/fmm"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
)

// TestCheckpointParkedStateCanonical is the regression test for a snapshot
// that depended on host timing. A node that charges past a message's arrival
// and then waits parks either blocked (the message was posted after it
// entered the wait, and lowered its wake into its past) or ready at its clock
// (the message was already there). Under the parallel engine the poster and
// the waiter run concurrently in one window, so which of the two happened was
// a race: `dpabench -app fmm -nodes 8 -runtime caching -engine parallel
// -checkpoint-at 60000` wrote a different file in one run in eight, and this
// smaller cell (1024 bodies, boundary at 20000, while node 0 is far ahead of
// the others) in three captures of four. The snapshot now encodes both as
// the ready process they are (sim.EncodeProcs), so every parallel capture
// must equal the sequential one byte for byte.
func TestCheckpointParkedStateCanonical(t *testing.T) {
	const (
		nodes    = 8
		bodies   = 1024
		at       = 20000
		captures = 30
	)
	w := nbody.Uniform2D(bodies, 42)
	prm := fmm.DefaultParams(bodies)
	capture := func(eng Engine) *sim.Snapshot {
		var snap *sim.Snapshot
		mcfg := DefaultT3D(nodes)
		mcfg.Engine, mcfg.EngineTuning = eng.Kind(), eng.Tuning()
		mcfg.Checkpoint = &machine.CheckpointSpec{At: at, Deliver: func(s *sim.Snapshot, err error) {
			if err != nil {
				t.Fatalf("capture delivered error: %v", err)
			}
			snap = s
		}}
		fmm.RunStep(mcfg, driver.CachingSpec(), w, prm)
		if snap == nil {
			t.Fatalf("checkpoint at t=%d never fired", at)
		}
		return snap
	}
	want := capture(Sequential())
	for i := 0; i < captures; i++ {
		got := capture(Parallel(Workers(2)))
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("parallel capture %d differs from the sequential capture: %s", i, want.Diff(got))
		}
	}
}
