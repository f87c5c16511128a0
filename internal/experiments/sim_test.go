package experiments

import (
	"sync"
	"testing"
)

// skipHeavySim gates the multi-minute simulation suites: they skip in
// -short runs and under the race detector (whose 10-20× slowdown would push
// them past any CI budget). The runner's concurrency tests keep running
// under -race — those are the tests the detector exists for, and they sweep
// only the fastest-simulating workloads.
func skipHeavySim(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	if raceEnabled {
		t.Skip("minutes of simulation; covered by the non-race run")
	}
}

var (
	sharedP7Once sync.Once
	sharedP7     *Matrix
)

// sharedP7Matrix gates like skipHeavySim, then returns the package's one
// P7OneChip/DefaultSeed matrix for tests that only read cells. Cells are
// deterministic, so a cell cached by an earlier test equals a fresh one and
// each cell simulates once per package run. Tests that observe caching,
// cancellation, budgets or worker counts, and the golden sweep, build their
// own matrices.
func sharedP7Matrix(t *testing.T) *Matrix {
	t.Helper()
	skipHeavySim(t)
	sharedP7Once.Do(func() { sharedP7 = NewMatrix(P7OneChip, DefaultSeed) })
	return sharedP7
}
