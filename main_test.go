package dpa

import (
	"os"
	"testing"

	"dpa/internal/leakguard"
)

// TestMain fails the package if a test leaves a machine's goroutines behind;
// no test here leaves a process parked.
func TestMain(m *testing.M) { os.Exit(leakguard.Main(m, 0)) }
