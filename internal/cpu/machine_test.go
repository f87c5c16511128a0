package cpu

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func newP7(t *testing.T, chips int) *Machine {
	t.Helper()
	m, err := NewMachine(arch.POWER7(), chips)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineGeometry(t *testing.T) {
	m := newP7(t, 2)
	if m.NumChips() != 2 || m.NumCores() != 16 {
		t.Fatalf("chips=%d cores=%d, want 2/16", m.NumChips(), m.NumCores())
	}
	if got := m.Counters().ActiveCores; got != 16 {
		t.Fatalf("idle machine ActiveCores %d, want all 16", got)
	}
	if m.SMTLevel() != 4 {
		t.Fatalf("default SMT level %d, want the architecture max 4", m.SMTLevel())
	}
	if m.HardwareThreads() != 64 {
		t.Fatalf("hardware threads %d, want 64", m.HardwareThreads())
	}
}

func TestSetSMTLevel(t *testing.T) {
	m := newP7(t, 1)
	for _, l := range []int{1, 2, 4} {
		if err := m.SetSMTLevel(l); err != nil {
			t.Fatal(err)
		}
		if m.HardwareThreads() != 8*l {
			t.Fatalf("SMT%d: threads %d, want %d", l, m.HardwareThreads(), 8*l)
		}
	}
	if err := m.SetSMTLevel(3); err == nil {
		t.Fatal("SMT3 accepted on POWER7")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	m := newP7(t, 1)
	if _, err := m.RunContext(context.Background(), nil, 0); err == nil {
		t.Fatal("empty source list accepted")
	}
	too := make([]isa.Source, 33)
	for i := range too {
		too[i] = isa.Done{}
	}
	if _, err := m.RunContext(context.Background(), too, 0); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestRunCycleLimit(t *testing.T) {
	m := newP7(t, 1)
	m.SetSMTLevel(1)
	// An infinite source must hit the cycle limit.
	srcs := []isa.Source{&fixedStream{n: 1 << 60, class: isa.Int}}
	_, err := m.RunContext(context.Background(), srcs, 1000)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	skipHeavySim(t)
	run := func() (int64, uint64) {
		m := newP7(t, 1)
		m.SetSMTLevel(4)
		spec, _ := workload.Get("SSCA2")
		inst, _ := workload.Instantiate(spec, 32, 11)
		wall, err := m.RunContext(context.Background(), inst.Sources(), 0)
		if err != nil {
			t.Fatal(err)
		}
		s := m.Counters()
		return wall, s.Retired
	}
	w1, r1 := run()
	w2, r2 := run()
	if w1 != w2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", w1, r1, w2, r2)
	}
}

func TestAllWorkRetired(t *testing.T) {
	skipHeavySim(t)
	m := newP7(t, 1)
	m.SetSMTLevel(2)
	spec, _ := workload.Get("Blackscholes")
	inst, _ := workload.Instantiate(spec, 16, 3)
	if _, err := m.RunContext(context.Background(), inst.Sources(), 0); err != nil {
		t.Fatal(err)
	}
	s := m.Counters()
	useful := inst.UsefulInstrs()
	spin := inst.SpinInstrs()
	if s.Retired != uint64(useful+spin) {
		t.Fatalf("retired %d != useful %d + spin %d", s.Retired, useful, spin)
	}
}

func TestSMT4BeatsSMT1ForScalableLowILP(t *testing.T) {
	skipHeavySim(t)
	// The paper's headline positive case: EP-style workloads gain from
	// SMT4 (Fig. 1).
	spec, _ := workload.Get("EP")
	walls := map[int]int64{}
	for _, level := range []int{1, 4} {
		m := newP7(t, 1)
		m.SetSMTLevel(level)
		inst, _ := workload.Instantiate(spec, m.HardwareThreads(), 1)
		wall, err := m.RunContext(context.Background(), inst.Sources(), 0)
		if err != nil {
			t.Fatal(err)
		}
		walls[level] = wall
	}
	speedup := float64(walls[1]) / float64(walls[4])
	if speedup < 1.5 {
		t.Fatalf("EP SMT4/SMT1 speedup %.2f, want > 1.5", speedup)
	}
}

func TestSMT4HurtsContendedWorkload(t *testing.T) {
	skipHeavySim(t)
	// The paper's headline negative case: heavy lock contention makes
	// SMT4 slower than SMT1 (SPECjbb-contention in Fig. 7).
	spec, _ := workload.Get("SPECjbb_contention")
	walls := map[int]int64{}
	for _, level := range []int{1, 4} {
		m := newP7(t, 1)
		m.SetSMTLevel(level)
		inst, _ := workload.Instantiate(spec, m.HardwareThreads(), 1)
		wall, err := m.RunContext(context.Background(), inst.Sources(), 0)
		if err != nil {
			t.Fatal(err)
		}
		walls[level] = wall
	}
	speedup := float64(walls[1]) / float64(walls[4])
	if speedup > 0.9 {
		t.Fatalf("SPECjbb_contention SMT4/SMT1 speedup %.2f, want < 0.9", speedup)
	}
}

func TestCountersAccumulateAcrossRuns(t *testing.T) {
	m := newP7(t, 1)
	m.SetSMTLevel(1)
	src := func() []isa.Source {
		return []isa.Source{&fixedStream{n: 10_000, class: isa.Int}}
	}
	if _, err := m.RunContext(context.Background(), src(), 0); err != nil {
		t.Fatal(err)
	}
	s1 := m.Counters()
	if _, err := m.RunContext(context.Background(), src(), 0); err != nil {
		t.Fatal(err)
	}
	s2 := m.Counters()
	if s2.Retired != 2*s1.Retired {
		t.Fatalf("retired %d after two runs, want %d", s2.Retired, 2*s1.Retired)
	}
	d := s2.Delta(&s1)
	if d.Retired != s1.Retired {
		t.Fatalf("delta retired %d, want %d", d.Retired, s1.Retired)
	}
}

func TestResetClearsState(t *testing.T) {
	m := newP7(t, 1)
	m.SetSMTLevel(1)
	srcs := []isa.Source{&fixedStream{n: 10_000, class: isa.Load, step: 64}}
	if _, err := m.RunContext(context.Background(), srcs, 0); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	s := m.Counters()
	if s.Retired != 0 || s.WallCycles != 0 || s.DramLines != 0 {
		t.Fatalf("counters after reset: %+v", s)
	}
}

func TestDispHeldAccounting(t *testing.T) {
	// A long serial FP chain keeps the window full behind a slow head, so
	// dispatch must be held a significant fraction of cycles.
	m := newP7(t, 1)
	m.SetSMTLevel(1)
	srcs := []isa.Source{&fixedStream{n: 50_000, class: isa.FPVec, dep: 1}}
	if _, err := m.RunContext(context.Background(), srcs, 0); err != nil {
		t.Fatal(err)
	}
	s := m.Counters()
	if f := s.DispHeldFraction(); f < 0.3 {
		t.Fatalf("dispatch-held fraction %.3f for a serial FP chain, want > 0.3", f)
	}
}

func TestBranchCountersFlow(t *testing.T) {
	skipHeavySim(t)
	m := newP7(t, 1)
	m.SetSMTLevel(1)
	spec, _ := workload.Get("Gafort") // branchy workload
	inst, _ := workload.Instantiate(spec, 8, 1)
	if _, err := m.RunContext(context.Background(), inst.Sources(), 0); err != nil {
		t.Fatal(err)
	}
	s := m.Counters()
	if s.BranchLookups == 0 || s.BranchMispredicts == 0 {
		t.Fatal("branch counters empty for a branchy workload")
	}
	if s.BranchMispredicts >= s.BranchLookups {
		t.Fatal("more mispredicts than lookups")
	}
}

func TestCacheLevelCountersFlow(t *testing.T) {
	m := newP7(t, 1)
	m.SetSMTLevel(1)
	spec, _ := workload.Get("Stream")
	inst, _ := workload.Instantiate(spec, 8, 1)
	if _, err := m.RunContext(context.Background(), inst.Sources(), 0); err != nil {
		t.Fatal(err)
	}
	s := m.Counters()
	if s.HitsByLevel[mem.LevelMem] == 0 {
		t.Fatal("streaming workload recorded no memory-level accesses")
	}
	if s.DramLines == 0 {
		t.Fatal("no DRAM lines transferred")
	}
}

func TestTwoChipNUMATraffic(t *testing.T) {
	// A shared-heavy workload on two chips must exercise both memory
	// channels.
	m := newP7(t, 2)
	m.SetSMTLevel(1)
	spec, _ := workload.Get("SSCA2")
	inst, _ := workload.Instantiate(spec, 16, 1)
	if _, err := m.RunContext(context.Background(), inst.Sources(), 0); err != nil {
		t.Fatal(err)
	}
	for ci, chip := range m.chips {
		if chip.dram.Lines == 0 {
			t.Fatalf("chip %d transferred no lines; NUMA interleave broken", ci)
		}
	}
}

func TestFewerSourcesThanContexts(t *testing.T) {
	m := newP7(t, 1)
	m.SetSMTLevel(4)
	// 3 threads on 32 contexts: must run and finish.
	srcs := []isa.Source{
		&fixedStream{n: 5000, class: isa.Int},
		&fixedStream{n: 5000, class: isa.Int},
		&fixedStream{n: 5000, class: isa.Int},
	}
	if _, err := m.RunContext(context.Background(), srcs, 0); err != nil {
		t.Fatal(err)
	}
	s := m.Counters()
	if s.Retired != 15_000 {
		t.Fatalf("retired %d, want 15000", s.Retired)
	}
	if len(s.ThreadBusy) != 3 {
		t.Fatalf("thread busy entries %d, want 3", len(s.ThreadBusy))
	}
}

func TestNehalemMachine(t *testing.T) {
	skipHeavySim(t)
	m, err := NewMachine(arch.Nehalem(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.HardwareThreads() != 8 {
		t.Fatalf("Nehalem SMT2 threads %d, want 8", m.HardwareThreads())
	}
	spec, _ := workload.Get("Swaptions")
	inst, _ := workload.Instantiate(spec, 8, 1)
	if _, err := m.RunContext(context.Background(), inst.Sources(), 0); err != nil {
		t.Fatal(err)
	}
	s := m.Counters()
	// Stores must light up both the store-address and store-data ports.
	if s.IssuedByPort[arch.NhmPort3] == 0 || s.IssuedByPort[arch.NhmPort4] == 0 {
		t.Fatalf("store ports unused: %v", s.IssuedByPort)
	}
	if s.IssuedByPort[arch.NhmPort3] != s.IssuedByPort[arch.NhmPort4] {
		t.Fatalf("store-address (%d) and store-data (%d) counts differ",
			s.IssuedByPort[arch.NhmPort3], s.IssuedByPort[arch.NhmPort4])
	}
}

func TestIdleSkipWithSleepers(t *testing.T) {
	// All threads sleeping: the clock must skip ahead rather than crawl.
	m := newP7(t, 1)
	m.SetSMTLevel(1)
	spec := &workload.Spec{
		Name: "sleepy", Mix: workload.Mix{Int: 1}, Chains: 1,
		WorkingSetKB: 1, TotalWork: 8000, IterLen: 1000,
		SleepEvery: 1, SleepCycles: 100_000,
	}
	inst, err := workload.Instantiate(spec, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	wall, err := m.RunContext(context.Background(), inst.Sources(), 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if wall < 100_000 {
		t.Fatalf("wall %d cycles; sleeps not honoured", wall)
	}
	s := m.Counters()
	if r := s.ScalabilityRatio(); r < 2 {
		t.Fatalf("scalability ratio %.2f for a sleep-dominated run, want > 2", r)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	// All-taken branches predicted perfectly vs random branches: the
	// random stream must take far longer per instruction.
	run := func(pattern func(i int) bool) int64 {
		m := newP7(t, 1)
		m.SetSMTLevel(1)
		src := &branchStream{n: 20_000, pattern: pattern}
		wall, err := m.RunContext(context.Background(), []isa.Source{src}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return wall
	}
	predictable := run(func(i int) bool { return true })
	rng := xrand.New(99)
	noisy := run(func(i int) bool { return rng.Float64() < 0.5 })
	if float64(noisy) < float64(predictable)*1.3 {
		t.Fatalf("noisy branches %d cycles vs predictable %d; mispredict penalty missing",
			noisy, predictable)
	}
}

// branchStream alternates int work with branches following a pattern.
type branchStream struct {
	n       int64
	i       int
	pattern func(i int) bool
}

func (b *branchStream) Fetch(now int64, out *isa.Inst) isa.FetchStatus {
	if b.n <= 0 {
		return isa.FetchDone
	}
	b.n--
	b.i++
	if b.i%4 == 0 {
		*out = isa.Inst{Class: isa.Branch, Addr: 0x1000, Taken: b.pattern(b.i)}
	} else {
		*out = isa.Inst{Class: isa.Int}
	}
	return isa.FetchOK
}

// queuedRefs counts the port-queue references across the machine.
func queuedRefs(m *Machine) int {
	n := 0
	for _, core := range m.cores {
		for p := range core.ports {
			n += core.ports[p].n
		}
	}
	return n
}

// issuedMinusRetired runs MG seed 3, cut to work that finishes, on m to
// completion and returns how many more instructions it issued than it
// retired. POWER7 consumes no extra ports, so a clean run returns zero.
func issuedMinusRetired(t *testing.T, m *Machine) int64 {
	t.Helper()
	spec, err := workload.Get("MG")
	if err != nil {
		t.Fatal(err)
	}
	short := *spec
	short.TotalWork = 200_000
	inst, err := workload.Instantiate(&short, m.HardwareThreads(), 3)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Counters()
	if _, err := m.RunContext(context.Background(), inst.Sources(), 0); err != nil {
		t.Fatal(err)
	}
	after := m.Counters()
	var issued int64
	for p := range after.IssuedByPort {
		issued += int64(after.IssuedByPort[p] - before.IssuedByPort[p])
	}
	return issued - int64(after.Retired-before.Retired)
}

// TestNoPhantomIssueAfterCappedRun is the witness for queue references
// outliving a capped run: MG seed 3 capped at 50 000 cycles on one POWER7
// chip leaves instructions queued, and the context reset of the next run
// drops them. The next run on the same machine, without a Reset, must issue
// exactly what it retires, as a run on a fresh machine does.
func TestNoPhantomIssueAfterCappedRun(t *testing.T) {
	spec, err := workload.Get("MG")
	if err != nil {
		t.Fatal(err)
	}
	m := newP7(t, 1)
	inst, err := workload.Instantiate(spec, m.HardwareThreads(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(context.Background(), inst.Sources(), 50_000); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("capped run: err = %v, want ErrCycleLimit", err)
	}
	stale := queuedRefs(m)
	if stale == 0 {
		t.Fatal("capped run left no queued instructions; the witness needs some")
	}
	if d := issuedMinusRetired(t, newP7(t, 1)); d != 0 {
		t.Fatalf("fresh machine: issued - retired = %d, want 0", d)
	}
	if d := issuedMinusRetired(t, m); d != 0 {
		t.Fatalf("after a capped run leaving %d queued: issued - retired = %d, want 0", stale, d)
	}
}
