package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/api"
	"repro/internal/experiments"
)

// workloads lists the benchmark's workloads and the serving path each
// replays first in a traced run.
var workloads = map[string]string{
	"metric-fleet":  "metric",
	"analyze-burst": "analyze",
	"place-mix":     "place",
	"campaign":      "cells",
}

// primarySeries names the latency series behind op_p50_ms per workload.
var primarySeries = map[string]string{
	"metric-fleet":  "metric",
	"analyze-burst": "analyze_fresh",
	"place-mix":     "place",
	"campaign":      "cell",
}

// endToEnd are the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, with their units.
var perLayer = []struct{ name, unit string }{
	{"host.calib_mops", "Mops/s"},
	{"trace.overhead_frac", "frac"},
	{"api.decode_us", "us"},
	{"api.encode_us", "us"},
	{"client.overhead_us", "us"},
	{"router.hop_us", "us"},
	{"router.fallback_total", "count"},
	{"router.forward_failures_total", "count"},
	{"router.shard_share_max", "frac"},
	{"server.metric_handler_us", "us"},
	{"server.cache_hit_rate", "frac"},
	{"server.probes_per_fresh_key", "frac"},
	{"server.coalesced_total", "count"},
	{"server.peak_active_workers", "count"},
	{"server.shed_total", "count"},
	{"server.timeout_total", "count"},
	{"counters.fingerprint_ns", "ns"},
	{"smtsm.compute_ns", "ns"},
	{"workload.compile_ms", "ms"},
	{"workload.instantiate_us", "us"},
	{"workload.cache_hit_rate", "frac"},
	{"cpu.pool_get_us", "us"},
	{"cpu.pool_hit_rate", "frac"},
	{"cpu.run_mcycles_per_s.smt1", "Mcycles/s"},
	{"cpu.run_mcycles_per_s.smt2", "Mcycles/s"},
	{"cpu.run_mcycles_per_s.smt4", "Mcycles/s"},
	{"cpu.run_allocs_per_mcycle", "allocs/Mcycle"},
	{"cpu.batch_mcycles_per_s", "Mcycles/s"},
	{"controller.probe_s", "s"},
	{"controller.self_ms", "ms"},
	{"placement.resolve_us", "us"},
	{"placement.place_s", "s"},
	{"placement.pairs_per_s", "pairs/s"},
	{"experiments.cell_s", "s"},
	{"experiments.runner_util", "frac"},
}

// Run limits.
const (
	runBudget = 170 * time.Second // a run must end within 180 s
	// fleetSetups fleet bring-ups give setup_s on the HTTP workloads.
	fleetSetups = 401
	// campaignSetups batches of campaignSetupBatch campaign constructions
	// give setup_s on campaign; one construction takes microseconds.
	campaignSetups     = 51
	campaignSetupBatch = 1000
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "metric-fleet", "workload: metric-fleet, analyze-burst, place-mix or campaign")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed sends the same requests")
	fs.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", o.workload, o.seconds, o.trace)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rep, err := measure(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// report is one run's outcome.
type report struct {
	o         options
	host      hostInfo
	calib     float64
	setup     float64
	summary   []string
	attempted int
	failures  []string
	failed    int
	metrics   []metricOut
	layers    []layerSummary
}

type metricOut struct {
	name, unit string
	value      float64
}

// measure runs the workload: host calibration, then either set-up and the
// untraced measurement, or the traced run.
func measure(ctx context.Context, o options) (*report, error) {
	rep := &report{o: o, host: readHost(), calib: calibrate()}
	seconds := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		return rep, rep.traced(ctx, seconds)
	}
	var f *fleet
	if o.workload == "campaign" {
		rep.setup = measureCampaignSetup(o.seed)
	} else {
		var err error
		if rep.setup, f, err = measureFleetSetup(ctx); err != nil {
			return nil, err
		}
	}
	res, err := runLive(ctx, o.workload, o.seed, seconds, f, nil)
	if f != nil {
		f.stop()
	}
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed, rep.failures = res.Attempted, res.Failed, res.Failures
	rep.endToEnd(res)
	return rep, nil
}

// measureFleetSetup brings the fleet up fleetSetups times and returns the
// median bring-up time with the last fleet still running. One bring-up
// takes well under a millisecond and mostly waits on loopback connects
// and goroutine hand-offs, so many of them are needed for a steady median.
func measureFleetSetup(ctx context.Context) (float64, *fleet, error) {
	times := make([]float64, 0, fleetSetups)
	var f *fleet
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(ctx); err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), f, nil
}

// setupSink keeps the timed campaign constructions from being optimised
// away.
var setupSink struct {
	specs  []experiments.SweepSpec
	runner experiments.Runner
}

// measureCampaignSetup times campaign's own set-up, building a fresh
// campaign (its matrices and runner) as every sweep does, and returns the
// median time of one build over campaignSetups batches. Each batch starts
// after a collection, so it does not pay for the previous batch's garbage.
func measureCampaignSetup(seed uint64) float64 {
	times := make([]float64, 0, campaignSetups)
	for i := 0; i < campaignSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < campaignSetupBatch; k++ {
			setupSink.specs, setupSink.runner = newCampaign(seed, nil)
		}
		times = append(times, time.Since(t0).Seconds()/campaignSetupBatch)
	}
	setupSink.specs = nil
	return median(times)
}

// endToEnd fills the untraced metrics and the workload's own summary.
func (rep *report) endToEnd(res *liveResult) {
	values := map[string]float64{
		"setup_s":       rep.setup,
		"ops_per_s":     opsPerSecond(res),
		"op_p50_ms":     medianOf(res.Series[primarySeries[rep.o.workload]], time.Millisecond),
		"cpu_ms_per_op": ratio(float64(res.CPU)/float64(time.Millisecond), float64(res.Ops)),
		"max_rss_mb":    maxRSSMB(),
	}
	for _, m := range endToEnd {
		rep.metrics = append(rep.metrics, metricOut{m.name, m.unit, rep.measured(m.name, values)})
	}
	rep.summary = workloadSummary(rep.o.workload, res)
}

// opsPerSecond is the median throughput of the pass's windows, so a few
// seconds of interference from elsewhere on the host move it no more than
// they move a latency median. A pass without windows of equal work
// (analyze-burst epochs differ in which bench takes which round;
// place-mix answers about one request a second) reports its overall
// throughput.
func opsPerSecond(res *liveResult) float64 {
	if len(res.Rates) == 0 {
		return float64(res.Ops) / res.Window.Seconds()
	}
	return median(res.Rates)
}

// measured returns values[name], counting a missing or non-finite value
// as a failure (reported as 0) so the result stays valid JSON.
func (rep *report) measured(name string, values map[string]float64) float64 {
	v, ok := values[name]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		rep.failed++
		rep.failures = append(rep.failures, "metric "+name+" not measured")
		return 0
	}
	return v
}

// workloadSummary renders the workload's own end-to-end figures.
func workloadSummary(w string, res *liveResult) []string {
	var out []string
	line := func(name string, v float64, unit, note string) {
		out = append(out, fmt.Sprintf("%-26s %14.6g %-10s %s", name, v, unit, note))
	}
	dists := func(prefix, series string, unit time.Duration, uname string) {
		d := summarize(scaled(res.Series[series], unit))
		line(prefix+"_p50_"+uname, d.Median, uname, fmt.Sprintf("(n=%d)", d.N))
		if d.TailP > 5000 {
			p := strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", float64(d.TailP)/100), "0"), ".")
			line(prefix+"_p"+p+"_"+uname, d.Tail, uname, fmt.Sprintf("(n=%d, highest percentile with >=%d samples beyond)", d.N, minBeyond))
		}
	}
	secs := res.Window.Seconds()
	line("ops_failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "frac", fmt.Sprintf("(%d of %d)", res.Failed, res.Attempted))
	switch w {
	case "metric-fleet":
		line("metric_rps", opsPerSecond(res), "1/s", "(median of one-second windows)")
		dists("metric", "metric", time.Microsecond, "us")
	case "analyze-burst":
		dists("analyze_fresh", "analyze_fresh", time.Second, "s")
		dists("analyze_hit", "analyze_hit", time.Microsecond, "us")
		ep := res.Series["epoch"]
		line("analyze_wall_s", medianOf(ep, time.Second), "s", fmt.Sprintf("(median schedule-epoch makespan, n=%d)", len(ep)))
		line("sim_mcycles_per_s", float64(res.SimCycles)/1e6/secs, "Mcycles/s", fmt.Sprintf("(%d fresh keys)", res.FreshKeys))
	case "place-mix":
		dists("place", "place", time.Second, "s")
		line("place_pairs_per_s", float64(res.Pairs)/secs, "pairs/s", "")
		line("sim_mcycles_per_s", float64(res.SimCycles)/1e6/secs, "Mcycles/s", "")
	case "campaign":
		sw := res.Series["sweep"]
		line("campaign_s", medianOf(sw, time.Second), "s", fmt.Sprintf("(median sweep of %d cells, n=%d)", len(campaignBenches)*5, len(sw)))
		dists("cell", "cell", time.Second, "s")
		line("sim_mcycles_per_s", float64(res.SimCycles)/1e6/secs, "Mcycles/s", "")
	}
	return out
}

// traced runs the workload for a quarter of seconds on a fresh fleet with
// a span around every client call, then replays the served requests layer
// by layer twice: untraced, then traced, for the tracing overhead. A small
// seeded reference set fills the layers the workload does not reach. The
// replays simulate every served key, pair and cell twice over, one at a
// time, so the live pass is kept short to end well inside runBudget.
func (rep *report) traced(ctx context.Context, seconds time.Duration) error {
	w := rep.o.workload
	var f *fleet
	if w != "campaign" {
		var err error
		if f, err = startFleet(ctx); err != nil {
			return err
		}
	}
	tr := newTracer()
	res, err := runLive(ctx, w, rep.o.seed, seconds/4, f, tr)
	if f != nil {
		f.stop()
	}
	if err != nil {
		return err
	}
	rp := &replayer{tr: tr}
	lv, err := rp.layers(ctx, w, rep.o.seed, res)
	if err != nil {
		return err
	}
	lv["host.calib_mops"] = rep.calib

	rep.attempted = res.Attempted + rp.attempts
	rep.failures = append(append([]string(nil), res.Failures...), rp.Failures...)
	rep.failed = res.Failed + rp.Failed
	for _, m := range perLayer {
		rep.metrics = append(rep.metrics, metricOut{m.name, m.unit, rep.measured(m.name, lv)})
	}
	rep.summary = workloadSummary(w, res)
	spans := tr.snapshot()
	rep.layers = summarizeLayers(spans)
	if err := os.MkdirAll(rep.o.out, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(rep.o.out, fmt.Sprintf("spans-%s-%d.jsonl", w, rep.o.seed)), spans)
}

// replay replays one serving path: with own set, the traced pass's served
// inputs; otherwise a small seeded reference set. The metric path also
// returns the counters of the fleet it replayed on.
func (rp *replayer) replay(ctx context.Context, kind string, own bool, seed uint64, res *liveResult) (layerValues, fleetVars, error) {
	switch kind {
	case "metric":
		reqs := res.MetricReqs
		if !own {
			gen := newMetricGen(seed, 0)
			reqs = nil
			for i := 0; i < 64; i++ {
				reqs = append(reqs, gen.next())
			}
		}
		return rp.metric(ctx, reqs)
	case "analyze":
		keys, served := res.AnalyzeKeys, res.Fingerprint
		if !own {
			keys, served = []akey{referenceKey(seed)}, nil
		}
		lv, err := rp.analyze(ctx, keys, served)
		return lv, fleetVars{}, err
	case "place":
		reqs := res.PlaceReqs
		if !own {
			reqs = []api.PlaceRequest{placeRequest(seed, 0)}
		}
		lv, err := rp.place(ctx, reqs)
		return lv, fleetVars{}, err
	case "cells":
		served := res.CellWalls
		if !own {
			served = nil
		}
		lv, err := rp.cells(ctx, campaignCells(seed, own), served)
		return lv, fleetVars{}, err
	}
	return nil, fleetVars{}, fmt.Errorf("unknown replay %q", kind)
}

// layers runs the replays and derives the counter-based layer metrics
// from the fleet's /debug/vars counters. The reference replays run first,
// so the workload's own replay, run untraced and then traced for
// trace.overhead_frac, finds the process warmed up both times. Own-path
// values take precedence over reference ones.
func (rp *replayer) layers(ctx context.Context, w string, seed uint64, res *liveResult) (layerValues, error) {
	own := workloads[w]
	refs := layerValues{}
	var replayVars fleetVars
	for _, kind := range []string{"metric", "analyze", "place", "cells"} {
		if kind == own {
			continue
		}
		got, vars, err := rp.replay(ctx, kind, false, seed, res)
		if err != nil {
			return nil, fmt.Errorf("%s reference replay: %w", kind, err)
		}
		if kind == "metric" {
			replayVars = vars
		}
		refs.fill(got)
	}
	if w != "campaign" {
		refs.fill(rp.miniCampaign(ctx, seed))
	}

	plain := &replayer{}
	t0 := time.Now()
	_, _, err := plain.replay(ctx, own, true, seed, res)
	plainWall := time.Since(t0)
	rp.attempts += plain.attempts
	rp.merge(&plain.failLog)
	if err != nil {
		return nil, fmt.Errorf("untraced %s replay: %w", own, err)
	}
	t0 = time.Now()
	lv, vars, err := rp.replay(ctx, own, true, seed, res)
	tracedWall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s replay: %w", own, err)
	}
	if own == "metric" {
		replayVars = vars
	}
	lv["trace.overhead_frac"] = (tracedWall - plainWall).Seconds() / plainWall.Seconds()
	lv.fill(refs)
	if w == "campaign" {
		lv.putMedian("experiments.cell_s", res.Series["cell"], time.Second)
		lv["experiments.runner_util"] = res.RunnerUtil
	}

	v := res.Vars
	if !res.HasVars {
		v = replayVars
	}
	lv["server.cache_hit_rate"] = ratio(v.CacheHits, v.CacheHits+v.CacheMisses)
	switch {
	case w == "analyze-burst":
		if v.Probes > 0 {
			lv["server.probes_per_fresh_key"] = float64(res.FreshKeys) / v.Probes
		}
	case w == "place-mix":
		if v.Placements > 0 {
			lv["server.probes_per_fresh_key"] = float64(res.FreshKeys) / v.Placements
		}
	default:
		probes, err := rp.referenceBurst(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("reference burst: %w", err)
		}
		if probes > 0 {
			lv["server.probes_per_fresh_key"] = 1 / probes
		}
	}
	lv["server.coalesced_total"] = v.Coalesced + v.PlaceCoalesced
	lv["server.peak_active_workers"] = v.PeakActive
	lv["server.shed_total"] = v.Shed
	lv["server.timeout_total"] = v.Timeouts
	lv["router.fallback_total"] = v.Fallback
	lv["router.forward_failures_total"] = v.FwdFailures
	var sum, top float64
	for _, n := range v.ShardForwarded {
		sum += n
		top = max(top, n)
	}
	lv["router.shard_share_max"] = ratio(top, sum)
	progRate, poolRate := rp.hitRates()
	if v.ProgHits+v.ProgMisses > 0 {
		progRate = v.ProgHits / (v.ProgHits + v.ProgMisses)
	}
	if v.PoolHits+v.PoolMisses > 0 {
		poolRate = v.PoolHits / (v.PoolHits + v.PoolMisses)
	}
	lv["workload.cache_hit_rate"] = progRate
	lv["cpu.pool_hit_rate"] = poolRate
	return lv, nil
}

// print writes the human-readable summary, then the result object as the
// last line of standard output.
func (rep *report) print(w io.Writer) {
	h := rep.host
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s host.calib_mops=%.2f\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, rep.calib)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%d trace=%d fleet=router+%d shards (workers=%d each) caches=empty at start\n",
		rep.o.workload, rep.o.seed, rep.o.seconds, rep.o.trace, numShards, shardWorkers)
	for _, l := range rep.summary {
		fmt.Fprintln(w, l)
	}
	if len(rep.layers) > 0 {
		fmt.Fprintln(w, "layer self time (traced replay):")
		for _, l := range rep.layers {
			fmt.Fprintf(w, "  %-26s n=%-6d total=%-12v self=%v\n", l.Name, l.Count, l.Total.Round(time.Microsecond), l.Self.Round(time.Microsecond))
		}
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	names := make([]string, 0, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.name] = value{m.value, m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(w, "encoding result: %v\n", err)
		return
	}
	fmt.Fprintln(w, string(out))
}
