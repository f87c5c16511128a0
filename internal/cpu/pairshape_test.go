package cpu_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/workload"
)

// pairShapeCase is one pair co-run of the shape /v1/place scores: two
// threads sharing core 0 of a one-chip group, the chip's other cores empty.
// a == b runs two threads of one instantiation, as the placement engine
// scores a multi-threaded workload's self-pair. work, when set, cuts the
// specs' total work so the pair finishes before the scoring cap.
type pairShapeCase struct {
	a, b string
	seed uint64
	work int64
}

var pairShapeCases = []pairShapeCase{
	{a: "EP", b: "MG", seed: 1},
	{a: "Stream", b: "Canneal", seed: 2},
	{a: "SPECjbb_contention", b: "SPECjbb_contention", seed: 3},
	{a: "Swaptions", b: "IS", seed: 4, work: 40_000},
}

func pairShapeSpec(t *testing.T, name string, work int64) *workload.Spec {
	t.Helper()
	base, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if work == 0 {
		return base
	}
	spec := *base
	spec.TotalWork = work
	return &spec
}

// sources instantiates the pair's two threads afresh.
func (pc pairShapeCase) sources(t *testing.T) []isa.Source {
	t.Helper()
	a := pairShapeSpec(t, pc.a, pc.work)
	if pc.a == pc.b {
		inst, err := workload.Instantiate(a, 2, pc.seed)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Sources()
	}
	ia, err := workload.Instantiate(a, 1, pc.seed)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := workload.Instantiate(pairShapeSpec(t, pc.b, pc.work), 1, pc.seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return []isa.Source{ia.Sources()[0], ib.Sources()[0]}
}

func pairShapeMachine(t *testing.T, chips int, eng cpu.Engine) *cpu.Machine {
	t.Helper()
	m, err := cpu.NewMachine(arch.Nehalem(), chips)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetEngine(eng); err != nil {
		t.Fatal(err)
	}
	return m
}

func sameBatchResult(t *testing.T, what string, got, want cpu.BatchResult) {
	t.Helper()
	if got.Wall != want.Wall || !errors.Is(got.Err, want.Err) || (got.Err == nil) != (want.Err == nil) {
		t.Errorf("%s: wall/err %d/%v, want %d/%v", what, got.Wall, got.Err, want.Wall, want.Err)
	}
	if !reflect.DeepEqual(got.Snapshot, want.Snapshot) {
		t.Errorf("%s: snapshot diverges:\ngot:  %+v\nwant: %+v", what, got.Snapshot, want.Snapshot)
	}
}

// TestRunBatchPairShape pins the co-run shape the placement engine scores:
// a Nehalem RunBatch with one pair per chip, both threads on core 0 and
// cores 1-3 empty, capped at placement.DefaultScoreCycles, with one pair
// that finishes before the cap. The event engine, the scan engine and a
// solo run of each pair must agree bit for bit. A second, uncapped batch
// then fills every core of the same machines without a Reset: the cores
// the first batch left empty must carry exactly the round-robin state
// per-cycle stepping leaves, or event and scan diverge there.
func TestRunBatchPairShape(t *testing.T) {
	ctx := context.Background()
	machines := map[cpu.Engine]*cpu.Machine{}
	results := map[cpu.Engine][]cpu.BatchResult{}
	for _, eng := range []cpu.Engine{cpu.EngineEvent, cpu.EngineScan} {
		m := pairShapeMachine(t, len(pairShapeCases), eng)
		groups := make([][]isa.Source, len(pairShapeCases))
		for g, pc := range pairShapeCases {
			groups[g] = pc.sources(t)
		}
		res, err := m.RunBatch(ctx, groups, 1, placement.DefaultScoreCycles)
		if err != nil {
			t.Fatal(err)
		}
		machines[eng], results[eng] = m, res
	}
	ev, sc := results[cpu.EngineEvent], results[cpu.EngineScan]
	finished := 0
	for g, pc := range pairShapeCases {
		what := pc.a + "×" + pc.b
		sameBatchResult(t, what+" event vs scan", ev[g], sc[g])
		solo := pairShapeMachine(t, 1, cpu.EngineEvent)
		wall, err := solo.RunContext(ctx, pc.sources(t), placement.DefaultScoreCycles)
		sameBatchResult(t, what+" batch vs solo", ev[g], cpu.BatchResult{Wall: wall, Snapshot: solo.Counters(), Err: err})
		if ev[g].Err == nil {
			finished++
		} else if !errors.Is(ev[g].Err, cpu.ErrCycleLimit) {
			t.Fatalf("%s: %v", what, ev[g].Err)
		}
	}
	if finished != 1 {
		t.Fatalf("%d pairs finished before the cap, want exactly 1", finished)
	}

	// Second batch: every context of every core, run to completion.
	spec := pairShapeSpec(t, "Swaptions", 40_000)
	hw := arch.Nehalem().CoresPerChip * arch.Nehalem().MaxSMT
	for _, eng := range []cpu.Engine{cpu.EngineEvent, cpu.EngineScan} {
		groups := make([][]isa.Source, len(pairShapeCases))
		for g := range groups {
			inst, err := workload.Instantiate(spec, hw, uint64(10+g))
			if err != nil {
				t.Fatal(err)
			}
			groups[g] = inst.Sources()
		}
		res, err := machines[eng].RunBatch(ctx, groups, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		results[eng] = res
	}
	for g := range pairShapeCases {
		if results[cpu.EngineEvent][g].Err != nil {
			t.Fatalf("second batch group %d: %v", g, results[cpu.EngineEvent][g].Err)
		}
		sameBatchResult(t, "second batch event vs scan", results[cpu.EngineEvent][g], results[cpu.EngineScan][g])
	}
	if ev, sc := machines[cpu.EngineEvent].Now(), machines[cpu.EngineScan].Now(); ev != sc {
		t.Errorf("machine clocks diverge: event %d, scan %d", ev, sc)
	}
}
