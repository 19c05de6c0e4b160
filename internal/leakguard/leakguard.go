// Package leakguard fails a test binary that leaves goroutines behind. Every
// simulated node runs as a coroutine that lives as long as its machine, so a
// test that builds a machine, or hands a runner's store its first phase, and
// never closes it leaves one parked goroutine per node; Main catches it.
package leakguard

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// Main runs the package's tests and returns the exit code for os.Exit. A
// passing run fails if, once the tests are done, more goroutines remain than
// were running before them plus parked: the processes the package's tests
// leave inside their bodies on purpose (deadlocked or panicked runs, which no
// Close can end), counted for one pass over every test and scaled by -count.
// A fuzzing run is not checked: its inputs may deadlock any number of runs.
func Main(m *testing.M, parked int) int {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code != 0 || flagValue("test.fuzz") != "" || flagValue("test.fuzzworker") == "true" {
		return code
	}
	count, err := strconv.Atoi(flagValue("test.count"))
	if err != nil || count < 1 {
		count = 1
	}
	want := base + parked*count
	if got := Settle(want); got > want {
		fmt.Fprintf(os.Stderr, "leakguard: %d goroutines after the tests, want at most %d "+
			"(%d before them, %d left parked per pass, -count %d): a test did not Close a machine or store\n",
			got, want, base, parked, count)
		return 1
	}
	return 0
}

// Settle waits up to five seconds for the goroutine count to come down to
// want, since a goroutine that has returned may still be counted for a
// moment, and returns the count it ends at.
func Settle(want int) int {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func flagValue(name string) string {
	if f := flag.Lookup(name); f != nil {
		return f.Value.String()
	}
	return ""
}
