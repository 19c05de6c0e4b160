package machine

import "dpa/internal/sim"

// SwapEngineFactory replaces the constructor New builds engines with and
// returns the function that puts the old one back.
func SwapEngineFactory(f func(sim.EngineKind, sim.Time, sim.Tuning) (sim.Engine, error)) (restore func()) {
	old := newEngine
	newEngine = f
	return func() { newEngine = old }
}
