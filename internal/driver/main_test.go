package driver

import (
	"os"
	"testing"

	"dpa/internal/leakguard"
)

// parkedPerPass is how many processes one pass over this package's tests
// leaves parked inside their bodies, where no Close can reach them:
//   - TestBadThreadRejectedAtCreationSite: 16 phases under the parallel
//     engine panic on node 0 while node 1 has entered its body in the same
//     window (one each; under the sequential engine node 1 never starts, and
//     Close ends it);
//   - TestStoreCloseLeavesNoGoroutines: its panicking phase under the
//     parallel engine leaves node 0's 7 peers the same way (7);
//   - TestDegradedPhaseDropsRunStorage: the deadlocked phase, 4 nodes under
//     each engine (8);
//   - FuzzFaultConfig's seed corpus: the runs that deadlock (32).
const parkedPerPass = 16 + 7 + 8 + 32

// TestMain fails the package if a test leaves a machine's goroutines behind.
func TestMain(m *testing.M) { os.Exit(leakguard.Main(m, parkedPerPass)) }
