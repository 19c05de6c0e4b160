package driver_test

import (
	"errors"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/harness"
	"dpa/internal/machine"
)

// FuzzSpecValidate holds Spec.Validate to its contract: a DPA spec it
// accepts runs, and one it rejects is refused with an error wrapping
// driver.ErrBadSpec, never a panic. The spec runs as a harness.Cell: an
// accepted spec must carry a 4-node EM3D iteration (an E and an H phase) to
// completion with no error, and in planned mode end on a strip inside the
// bounds the defaults resolve to. A failure prints the cell with %#v, ready
// to paste into a regression test. The sizes are drawn from 16 bits (the
// budget from 32), negatives included, which covers every rule Validate
// states; beyond that range the knobs only scale arithmetic the phase does
// not reach at this size.
func FuzzSpecValidate(f *testing.F) {
	type knobs = struct {
		strip, stripMin, stripMax int16
		memBudget                 int32
		agg, poll                 int16
		lifo, pipeline, planned   bool
	}
	add := func(k knobs) {
		f.Add(k.strip, k.stripMin, k.stripMax, k.memBudget, k.agg, k.poll, k.lifo, k.pipeline, k.planned)
	}
	add(knobs{strip: 50, agg: 16, poll: 1, pipeline: true})                // the paper's DPA(50)
	add(knobs{strip: 50, agg: 16, poll: 1, pipeline: true, planned: true}) // planned mode
	// The two ways the bounds invert only once defaults apply: a minimum
	// above the default maximum, a maximum below the default minimum.
	add(knobs{strip: 50, stripMin: 5000, agg: 16, pipeline: true, planned: true})
	add(knobs{strip: 50, stripMax: 4, agg: 16, pipeline: true, planned: true})
	add(knobs{strip: 50, stripMin: 1, stripMax: 2, memBudget: 64, agg: 1, poll: 3, planned: true})
	add(knobs{strip: 0, agg: 0, lifo: true})
	add(knobs{strip: -1, agg: -1, poll: -1, lifo: true, planned: true})

	f.Fuzz(func(t *testing.T, strip, stripMin, stripMax int16, memBudget int32, agg, poll int16, lifo, pipeline, planned bool) {
		spec := driver.DPASpec(int(strip), driver.WithAggLimit(int(agg)), driver.WithPipeline(pipeline))
		spec.Core.StripMin, spec.Core.StripMax, spec.Core.MemBudget = int(stripMin), int(stripMax), int64(memBudget)
		spec.Core.PollEvery, spec.Core.LIFO, spec.Core.Planned = int(poll), lifo, planned
		cell := harness.Cell{App: "em3d", EM3D: em3d.DefaultParams(32), Iters: 1,
			Spec: spec, Machine: machine.DefaultT3D(4)}
		if err := cell.Validate(); err != nil {
			if !errors.Is(err, driver.ErrBadSpec) {
				t.Fatalf("%#v rejected with an error that is not ErrBadSpec: %v", cell, err)
			}
			return
		}
		run := cell.Exec()
		if run.Err != nil {
			t.Fatalf("%#v: accepted spec degraded: %v", cell, run.Err)
		}
		if !planned {
			return
		}
		lo, hi := int64(stripMin), int64(stripMax)
		if lo == 0 {
			lo = 8
		}
		if hi == 0 {
			hi = 4096
		}
		if fs := run.RT.FinalStrip; fs < lo || fs > hi {
			t.Fatalf("%#v: final strip %d outside the effective bounds [%d, %d]", cell, fs, lo, hi)
		}
	})
}
