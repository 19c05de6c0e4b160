package machine_test

import (
	"testing"

	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// TestSequentialResumesWithLookahead pins what the lookahead buys the
// sequential engine. Unlike the parallel engine's steal counters, its resume
// count is a pure function of program and lookahead: EM3D on 64 nodes must
// take at most half the coroutine switches under the model's lookahead that
// it takes under lookahead 0, and must compute the same run either way.
func TestSequentialResumesWithLookahead(t *testing.T) {
	run := func() (table string, resumes int64) {
		r, _ := em3d.RunIters(machine.DefaultT3D(64), driver.DPASpec(50), em3d.DefaultParams(1024), 2)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Host == nil || r.Host.Workers != 1 || r.Host.Windows != 0 {
			t.Fatalf("sequential host counters = %+v, want one worker and no windows", r.Host)
		}
		return r.Table(machine.DefaultT3D(64).ClockHz), r.Host.Resumes()
	}
	with, withResumes := run()
	again, againResumes := run()
	if with != again || withResumes != againResumes {
		t.Fatalf("sequential run does not repeat: %d resumes, then %d", withResumes, againResumes)
	}

	restore := machine.SwapEngineFactory(func(kind sim.EngineKind, _ sim.Time, tn sim.Tuning) (sim.Engine, error) {
		return sim.NewEngineWith(kind, 0, tn)
	})
	defer restore()
	without, withoutResumes := run()

	t.Logf("resumes: %d with the lookahead, %d without", withResumes, withoutResumes)
	if with != without {
		t.Errorf("run table depends on the sequential engine's lookahead:\n%s\nvs\n%s", with, without)
	}
	if 2*withResumes > withoutResumes {
		t.Errorf("%d resumes with the lookahead, want at most half of the %d without", withResumes, withoutResumes)
	}
}
