// Package smtselect is the public API of the SMT-selection-metric library,
// a full reproduction of Funston, El Maghraoui, Jann, Pattnaik and Fedorova:
// "An SMT-Selection Metric to Improve Multithreaded Applications'
// Performance" (IPDPS 2012).
//
// The library contains everything the paper's system needs, implemented
// from scratch in pure Go:
//
//   - a cycle-approximate simulator of SMT out-of-order processors with two
//     architecture models — an 8-core, 4-way-SMT POWER7 and a 4-core,
//     2-way-SMT Nehalem Core i7 — including issue ports, partitioned reorder
//     windows, issue queues, branch prediction, stream prefetching, a cache
//     hierarchy and banked DRAM (package internal/cpu and friends);
//   - a synthetic workload suite modelling the paper's Table I benchmarks
//     (NAS, PARSEC, SPEC OMP2001, SSCA2, STREAM, SPECjbb, DayTrader), with a
//     software runtime providing spin locks, blocking locks, barriers,
//     Amdahl phases and I/O sleeps (internal/workload, internal/sched);
//   - the SMT-selection metric itself (internal/smtsm), hardware-counter
//     plumbing (internal/counters), threshold selection by Gini impurity and
//     average-PPI (internal/threshold), and an online SMT-level controller
//     (internal/controller);
//   - drivers reproducing every table and figure of the paper's evaluation
//     (internal/experiments, cmd/experiments).
//
// The quickest path through the API:
//
//	ctx := context.Background()
//	m, _ := smtselect.NewPOWER7Machine(1)                // 8 cores, starts at SMT4
//	spec, _ := smtselect.Workload("EP")
//	res, _ := smtselect.RunWorkload(ctx, m, spec, 42)    // one thread per hw thread
//	fmt.Println(res.Metric.Value)                        // the SMTsm value
//
// and to pick the best SMT level for a workload:
//
//	best, _ := smtselect.BestSMTLevel(ctx, smtselect.POWER7(), 1, spec, 42)
//
// Every entry point that simulates takes a context.Context first: cancel
// it (or attach a deadline) to bound the simulation; results produced
// before the deadline are returned alongside the context error.
package smtselect

import (
	"context"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/smtsm"
	"repro/internal/threshold"
	"repro/internal/workload"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Arch describes a simulated processor architecture.
	Arch = arch.Desc
	// Machine is a simulated multi-chip SMT system.
	Machine = cpu.Machine
	// Counters is a hardware-performance-counter snapshot.
	Counters = counters.Snapshot
	// Metric is an SMT-selection-metric breakdown (value and factors).
	Metric = smtsm.Breakdown
	// WorkloadSpec describes a synthetic multithreaded workload.
	WorkloadSpec = workload.Spec
	// WorkloadInstance is a workload instantiated for a thread count.
	WorkloadInstance = workload.Instance
	// ThresholdPoint is a (metric, speedup) calibration observation.
	ThresholdPoint = threshold.Point
	// Controller is the online SMT-level controller of Section V.
	Controller = controller.Controller
	// ControllerConfig tunes the controller policy.
	ControllerConfig = controller.Config
)

// POWER7 returns the 8-core, SMT1/2/4 POWER7 architecture model (the
// paper's primary evaluation platform).
func POWER7() *Arch { return arch.POWER7() }

// Nehalem returns the 4-core, SMT1/2 Nehalem Core i7 architecture model.
func Nehalem() *Arch { return arch.Nehalem() }

// NewMachine builds a machine with the given architecture and chip count,
// starting at the architecture's deepest SMT level.
func NewMachine(d *Arch, chips int) (*Machine, error) { return cpu.NewMachine(d, chips) }

// NewPOWER7Machine builds a POWER7 machine with the given chip count (the
// paper uses one and two chips).
func NewPOWER7Machine(chips int) (*Machine, error) { return cpu.NewMachine(arch.POWER7(), chips) }

// NewNehalemMachine builds the quad-core Nehalem system.
func NewNehalemMachine() (*Machine, error) { return cpu.NewMachine(arch.Nehalem(), 1) }

// Workload returns a benchmark model from the built-in suite (the paper's
// Table I); see WorkloadNames for the available labels.
func Workload(name string) (*WorkloadSpec, error) { return workload.Get(name) }

// WorkloadNames lists the built-in benchmark models.
func WorkloadNames() []string { return workload.Names() }

// LoadWorkload reads and validates a custom workload spec from a JSON file
// (see internal/workload's JSON format; cmd/smtsim -spec uses the same).
func LoadWorkload(path string) (*WorkloadSpec, error) { return workload.LoadSpecFile(path) }

// GenericSMT8 returns the forward-looking 8-way-SMT architecture model used
// by the portability study.
func GenericSMT8() *Arch { return arch.GenericSMT8() }

// Workloads returns all built-in benchmark models.
func Workloads() []*WorkloadSpec { return workload.All() }

// RunResult is the outcome of running one workload to completion.
type RunResult struct {
	// WallCycles is the run's simulated wall-clock time.
	WallCycles int64
	// Counters is the cumulative counter snapshot after the run.
	Counters Counters
	// Metric is the SMT-selection metric evaluated on the run.
	Metric Metric
	// UsefulInstrs and SpinInstrs split the retired instructions into
	// real work and lock spinning.
	UsefulInstrs, SpinInstrs int64
}

// RunWorkload runs spec on m with one software thread per hardware thread
// (the paper's methodology) and returns the wall time, counters and metric.
// The machine's microarchitectural state is reset first so results are
// comparable across SMT levels.
func RunWorkload(ctx context.Context, m *Machine, spec *WorkloadSpec, seed uint64) (RunResult, error) {
	m.Reset()
	r, err := controller.RunOn(ctx, m, nil, spec, seed, 0)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		WallCycles:   r.WallCycles,
		Counters:     r.Snapshot,
		Metric:       r.Metric,
		UsefulInstrs: r.UsefulInstrs,
		SpinInstrs:   r.SpinInstrs,
	}, nil
}

// ComputeMetric evaluates the SMT-selection metric (Eq. 1 of the paper,
// instantiated per architecture as Eqs. 2 and 3) on a counter snapshot.
func ComputeMetric(d *Arch, s *Counters) Metric { return smtsm.Compute(d, s) }

// BestSMTLevel measures spec at every SMT level the architecture exposes
// and returns the level with the shortest wall time, along with the per-
// level results keyed by SMT level. It is the oracle the metric predicts.
func BestSMTLevel(ctx context.Context, d *Arch, chips int, spec *WorkloadSpec, seed uint64) (int, map[int]RunResult, error) {
	results, err := runLevels(ctx, d, chips, spec, seed, d.SMTLevels)
	if err != nil {
		return 0, nil, err
	}
	best := 0
	for _, level := range d.SMTLevels {
		if best == 0 || results[level].WallCycles < results[best].WallCycles {
			best = level
		}
	}
	return best, results, nil
}

// runLevels measures spec on one chips-chip machine of architecture d at
// each of levels in turn, keyed by level.
func runLevels(ctx context.Context, d *Arch, chips int, spec *WorkloadSpec, seed uint64, levels []int) (map[int]RunResult, error) {
	m, err := cpu.NewMachine(d, chips)
	if err != nil {
		return nil, err
	}
	results := make(map[int]RunResult, len(levels))
	for _, level := range levels {
		if err := m.SetSMTLevel(level); err != nil {
			return nil, err
		}
		if results[level], err = RunWorkload(ctx, m, spec, seed); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// PredictLowerSMT applies the paper's decision rule: given the metric
// measured at the architecture's highest SMT level and a calibrated
// threshold, it reports whether the workload should run at a lower SMT
// level.
func PredictLowerSMT(metric Metric, thresholdValue float64) bool {
	return metric.Value > thresholdValue
}

// CalibrationResult carries a calibrated threshold and its quality, as
// produced by the two procedures of the paper's Section V.
type CalibrationResult struct {
	// GiniThreshold is the impurity-minimising separator; GiniLo/GiniHi
	// bound the optimal range, and GiniImpurity is the minimum impurity.
	GiniThreshold, GiniLo, GiniHi, GiniImpurity float64
	// PPIThreshold maximises the expected average performance
	// improvement, PPIBest (in percent).
	PPIThreshold, PPIBest float64
	// Accuracy is the fraction of calibration points the Gini threshold
	// classifies correctly (the paper's "success rate").
	Accuracy float64
	// Points are the underlying observations.
	Points []ThresholdPoint
}

// Calibrate runs every named benchmark at the architecture's highest and
// lowest SMT levels, gathers (metric@highest, speedup) observations, and
// derives thresholds with both of the paper's procedures. This is the
// "representative workload set" calibration of Section V.
func Calibrate(ctx context.Context, d *Arch, chips int, benches []string, seed uint64) (CalibrationResult, error) {
	hi, lo := d.MaxSMT, d.SMTLevels[0]
	var pts []threshold.Point
	for _, b := range benches {
		spec, err := workload.Get(b)
		if err != nil {
			return CalibrationResult{}, err
		}
		r, err := runLevels(ctx, d, chips, spec, seed, []int{hi, lo})
		if err != nil {
			return CalibrationResult{}, err
		}
		pts = append(pts, threshold.Point{
			Metric:  r[hi].Metric.Value,
			Speedup: float64(r[lo].WallCycles) / float64(r[hi].WallCycles),
			Label:   b,
		})
	}
	g, err := threshold.GiniSearch(pts)
	if err != nil {
		return CalibrationResult{}, err
	}
	p, err := threshold.PPISearch(pts)
	if err != nil {
		return CalibrationResult{}, err
	}
	return CalibrationResult{
		GiniThreshold: g.Best, GiniLo: g.Lo, GiniHi: g.Hi, GiniImpurity: g.MinImpurity,
		PPIThreshold: p.Best, PPIBest: p.BestPPI,
		Accuracy: threshold.Accuracy(pts, g.Best),
		Points:   pts,
	}, nil
}

// NewController builds the Section V online controller for an architecture.
func NewController(d *Arch, cfg ControllerConfig) (*Controller, error) {
	return controller.New(d, cfg)
}

// RunAdaptive drives a machine through chunked work under controller
// control; see controller.RunAdaptiveContext.
func RunAdaptive(ctx context.Context, m *Machine, ctrl *Controller, src controller.WorkSource, maxCycles int64) ([]controller.IntervalResult, int64, error) {
	return controller.RunAdaptiveContext(ctx, m, ctrl, src, maxCycles)
}

// DefaultP7Benchmarks is the paper's single-chip POWER7 evaluation set.
func DefaultP7Benchmarks() []string {
	out := make([]string, len(experiments.P7Benchmarks))
	copy(out, experiments.P7Benchmarks)
	return out
}

// DefaultI7Benchmarks is the paper's Nehalem evaluation set.
func DefaultI7Benchmarks() []string {
	out := make([]string, len(experiments.I7Benchmarks))
	copy(out, experiments.I7Benchmarks)
	return out
}
