package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed with
// DPABENCH_MAIN set, so a test can drive it with real arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DPABENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlagsBeforeOutput: every flag combination the command cannot
// honour fails with one "dpabench: " line on stderr and exit status 1, before
// anything runs or reaches stdout.
func TestRejectsBadFlagsBeforeOutput(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-checkpoint-at", "-1"}, "-checkpoint-at must be positive"},
		{[]string{"-shape", "-runtime", "caching"}, "-shape selects DPA's planned mode"},
		{[]string{"-shape", "-runtime", "blocking"}, "needs -runtime dpa, not blocking"},
		{[]string{"-runtime", "caching", "-strips", "10"}, "-strips sweeps DPA strip sizes"},
		{[]string{"-runtime", "caching", "-strip", "7"}, "-strip tunes DPA and needs -runtime dpa, not caching"},
		{[]string{"-runtime", "blocking", "-agg", "1"}, "-agg tunes DPA and needs -runtime dpa, not blocking"},
		{[]string{"-runtime", "blocking", "-nopipe"}, "-nopipe tunes DPA"},
		{[]string{"-runtime", "caching", "-strip", "7", "-agg", "1", "-nopipe", "-app", "em3d", "-nodes", "4", "-bodies", "64", "-iters", "1"},
			"-agg tunes DPA"},
		{[]string{"-strips", "10,-5"}, `bad strip size "-5"`},
		{[]string{"-strips", "10,x"}, `bad strip size "x"`},
		{[]string{"-strips", "10", "-checkpoint-at", "5"}, "single-run mode"},
		{[]string{"-checkpoint-out", "f.snap"}, "-checkpoint-out requires -checkpoint-at"},
		{[]string{"-restore", "f.snap", "-checkpoint-at", "5"}, "mutually exclusive"},
		{[]string{"-crash-rate", "0.5"}, "-crash-rate requires -crash-at"},
		{[]string{"-tracebins", "0"}, "-tracebins must be positive"},
		{[]string{"-engine", "bogus"}, `unknown engine "bogus"`},
		{[]string{"-app", "em3d", "-bodies", "-1"}, "dpabench: "},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "DPABENCH_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1", err)
			}
			if stdout.Len() != 0 {
				t.Fatalf("printed before rejecting: %q", stdout.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "dpabench: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
				t.Fatalf("stderr %q, want one \"dpabench: \" line naming %q", msg, c.want)
			}
		})
	}
}

// TestCheckParsesStrips: an accepted -strips list comes back parsed, in order.
func TestCheckParsesStrips(t *testing.T) {
	sizes, err := flags{runtime: "dpa", strips: "10, 0,300", traceBins: 1}.check()
	if err != nil || len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 0 || sizes[2] != 300 {
		t.Fatalf("check = %v, %v; want [10 0 300]", sizes, err)
	}
	if sizes, err := (flags{runtime: "caching", traceBins: 1}).check(); sizes != nil || err != nil {
		t.Fatalf("check without -strips = %v, %v; want nil, nil", sizes, err)
	}
}
