package smtselect_test

import (
	"context"
	"testing"

	smtselect "repro"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// TestSoloRunPathsAgree pins the identity between the entry points that
// measure one workload solo at one SMT level: the advisor probe, the
// experiment matrix cell and the public RunWorkload must report the same
// wall cycles and the same counter fingerprint for the same (arch, chips,
// spec, seed, level).
func TestSoloRunPathsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed test")
	}
	const bench, seed = "MG", 42
	ctx := context.Background()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	mat := experiments.NewMatrix(experiments.I7OneChip, seed)
	d := arch.Nehalem()
	for _, smt := range d.SMTLevels {
		m, err := smtselect.NewNehalemMachine()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetSMTLevel(smt); err != nil {
			t.Fatal(err)
		}
		run, err := smtselect.RunWorkload(ctx, m, spec, seed)
		if err != nil {
			t.Fatalf("RunWorkload SMT%d: %v", smt, err)
		}
		if run.UsefulInstrs == 0 {
			t.Fatalf("RunWorkload SMT%d: no useful instructions", smt)
		}
		cell := mat.Cell(ctx, bench, smt)
		if cell.Err != nil {
			t.Fatalf("matrix cell SMT%d: %v", smt, cell.Err)
		}
		if cell.Wall != run.WallCycles || cell.Snap.Fingerprint() != run.Counters.Fingerprint() {
			t.Fatalf("SMT%d: matrix cell (%d cycles, %016x) != RunWorkload (%d cycles, %016x)",
				smt, cell.Wall, cell.Snap.Fingerprint(), run.WallCycles, run.Counters.Fingerprint())
		}
		if smt != d.MaxSMT {
			continue
		}
		p := &controller.Prober{Pool: cpu.NewPool(1), Cache: workload.NewCache(0)}
		probe, err := p.Probe(ctx, d, 1, spec, seed)
		if err != nil {
			t.Fatalf("Probe: %v", err)
		}
		if probe.WallCycles != run.WallCycles || probe.Snapshot.Fingerprint() != run.Counters.Fingerprint() {
			t.Fatalf("SMT%d: probe (%d cycles, %016x) != RunWorkload (%d cycles, %016x)",
				smt, probe.WallCycles, probe.Snapshot.Fingerprint(), run.WallCycles, run.Counters.Fingerprint())
		}
	}
}
