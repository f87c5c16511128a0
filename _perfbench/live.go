package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/smtsm"
)

// replayMetricCap bounds how many served metric requests a traced run
// replays layer by layer: client 0's first ones. Their layer timings are
// microseconds, so this many give steady medians; every analyze key and
// place request served is replayed.
const replayMetricCap = 2000

// failLog counts failed, refused or wrong answers and keeps the first
// maxFailureNotes messages. Safe for concurrent use.
type failLog struct {
	failMu   sync.Mutex
	Failed   int
	Failures []string
}

// maxFailureNotes bounds the failure messages a log keeps.
const maxFailureNotes = 8

func (l *failLog) fail(format string, args ...any) {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	l.Failed++
	if len(l.Failures) < maxFailureNotes {
		l.Failures = append(l.Failures, fmt.Sprintf(format, args...))
	}
}

// merge adds the failures of o to l.
func (l *failLog) merge(o *failLog) {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	l.Failed += o.Failed
	for _, n := range o.Failures {
		if len(l.Failures) < maxFailureNotes {
			l.Failures = append(l.Failures, n)
		}
	}
}

// liveResult is what one closed-loop pass of a workload measured.
type liveResult struct {
	failLog
	Attempted int
	// Window is the measured wall time; CPU the process CPU time in it.
	Window, CPU time.Duration
	// Ops counts completed operations: requests answered, or cells.
	Ops int
	// Rates holds the throughput of each of the pass's windows (one
	// second or a sweep); empty when the pass has none.
	Rates []float64
	// Series holds per-operation latencies by name.
	Series    map[string][]time.Duration
	SimCycles int64
	Pairs     int
	// FreshKeys counts distinct analyze keys or place requests answered.
	FreshKeys int
	// Vars are the pass's fleet counters (HTTP workloads).
	Vars    fleetVars
	HasVars bool
	// RunnerUtil is Stats.CellTime / (Elapsed × Workers), campaign only.
	RunnerUtil float64
	// CellWalls holds each campaign cell's wall cycles, campaign only.
	CellWalls map[cellRef]int64

	// Served inputs, kept for the traced replay.
	MetricReqs  []api.MetricRequest
	AnalyzeKeys []akey
	Fingerprint map[akey]string
	PlaceReqs   []api.PlaceRequest

	mu sync.Mutex
}

func newLiveResult() *liveResult {
	return &liveResult{Series: map[string][]time.Duration{}, Fingerprint: map[akey]string{}, CellWalls: map[cellRef]int64{}}
}

func (r *liveResult) add(series string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Series[series] = append(r.Series[series], d)
}

// runLive runs one closed-loop pass of workload w for about seconds,
// recording a client-call span per request when tr is non-nil. HTTP
// workloads run against f; campaign ignores it.
func runLive(ctx context.Context, w string, seed uint64, seconds time.Duration, f *fleet, tr *tracer) (*liveResult, error) {
	res := newLiveResult()
	cpu0, start := cpuTime(), time.Now()
	switch w {
	case "metric-fleet":
		liveMetric(ctx, f.cli, seed, seconds, res, tr)
	case "analyze-burst":
		liveAnalyze(ctx, f.cli, seed, seconds, res, tr)
	case "place-mix":
		livePlace(ctx, f.cli, seed, seconds, res, tr)
	case "campaign":
		liveCampaign(ctx, seed, seconds, res, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	res.Window, res.CPU = time.Since(start), cpuTime()-cpu0
	if f != nil {
		var err error
		if res.Vars, err = f.vars(ctx); err != nil {
			return nil, err
		}
		res.HasVars = true
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s pass overran its budget: %w", w, err)
	}
	return res, nil
}

// metricClients is the metric-fleet closed-loop client count.
const metricClients = 2

func liveMetric(ctx context.Context, cli *client.Client, seed uint64, seconds time.Duration, res *liveResult, tr *tracer) {
	start := time.Now()
	deadline := start.Add(seconds)
	lats := make([][]time.Duration, metricClients)
	done := make([][]time.Duration, metricClients) // answer times since start
	counts := make([]int, metricClients)
	var wg sync.WaitGroup
	for c := 0; c < metricClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newMetricGen(seed, c)
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				req := gen.next()
				if c == 0 && len(res.MetricReqs) < replayMetricCap {
					res.MetricReqs = append(res.MetricReqs, req) // client 0 owns this slice until wg.Wait
				}
				var rec api.Recommendation
				var err error
				d := tr.do("client.metric", uint64(c)<<32|uint64(k), 0, func() {
					rec, err = cli.Metric(ctx, req)
				})
				counts[c]++
				if err != nil {
					res.fail("metric: %v", err)
					continue
				}
				if err := checkMetric(req, rec); err != nil {
					res.fail("metric: %v", err)
					continue
				}
				lats[c] = append(lats[c], d)
				done[c] = append(done[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	perSecond := make([]float64, int(seconds/time.Second))
	for c := range lats {
		res.Attempted += counts[c]
		res.Ops += len(lats[c])
		res.Series["metric"] = append(res.Series["metric"], lats[c]...)
		for _, t := range done[c] {
			if w := int(t / time.Second); w < len(perSecond) {
				perSecond[w]++
			}
		}
	}
	res.Rates = perSecond
}

// expectedLevel is the advisor's documented decision rule: one exposed
// level below the measured one when the metric exceeds the threshold.
func expectedLevel(d *arch.Desc, measured int, metric, th float64) int {
	if !(metric > th) {
		return measured
	}
	best := measured
	for _, l := range d.SMTLevels {
		if l < measured && (best == measured || l > best) {
			best = l
		}
	}
	return best
}

// checkMetric recomputes the metric on the snapshot sent and requires the
// same bits, recommended level and fingerprint.
func checkMetric(req api.MetricRequest, rec api.Recommendation) error {
	d := archByName(req.Arch)
	want := smtsm.Compute(d, &req.Snapshot)
	if math.Float64bits(rec.Metric) != math.Float64bits(want.Value) {
		return fmt.Errorf("metric %v, recomputed %v", rec.Metric, want.Value)
	}
	if lvl := expectedLevel(d, req.Snapshot.SMTLevel, want.Value, shardThreshold); rec.RecommendedLevel != lvl {
		return fmt.Errorf("recommended SMT%d, want SMT%d", rec.RecommendedLevel, lvl)
	}
	if fp := fmt.Sprintf("%016x", req.Snapshot.Fingerprint()); rec.Fingerprint != fp {
		return fmt.Errorf("fingerprint %s, want %s", rec.Fingerprint, fp)
	}
	if rec.Degraded {
		return errors.New("degraded answer")
	}
	return nil
}

func liveAnalyze(ctx context.Context, cli *client.Client, seed uint64, seconds time.Duration, res *liveResult, tr *tracer) {
	var answered []akey
	fresh := map[akey]bool{}
	reqID := uint64(0)
	// A key's fresh latency is its first fresh answer: a coalesced waiter
	// shares the leader's flight, and counting it too would weight burst
	// benches double.
	for e := 0; e < analyzeEpochs(seconds) && ctx.Err() == nil; e++ {
		t0 := time.Now()
		for _, rd := range analyzeEpoch(seed, e, answered) {
			var recs [2]api.Recommendation
			var errs [2]error
			var lats [2]time.Duration
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func(c int, id uint64) {
					defer wg.Done()
					lats[c] = tr.do("client.analyze", id, 0, func() {
						recs[c], errs[c] = cli.Analyze(ctx, rd.Keys[c].request())
					})
				}(c, reqID+uint64(c))
			}
			wg.Wait()
			reqID += 2
			for c, k := range rd.Keys {
				res.Attempted++
				if errs[c] != nil {
					res.fail("analyze %s round %s: %v", k.Bench, rd.Kind, errs[c])
					continue
				}
				rec := recs[c]
				if err := checkAnalyze(k, rec, res.Fingerprint); err != nil {
					res.fail("analyze %s round %s: %v", k.Bench, rd.Kind, err)
					continue
				}
				res.Ops++
				switch {
				case rec.Cached:
					res.add("analyze_hit", lats[c])
				case !fresh[k]:
					fresh[k] = true
					lat := lats[c]
					if rd.Kind == burst && errs[1-c] == nil && !recs[1-c].Cached {
						lat = min(lat, lats[1-c])
					}
					res.add("analyze_fresh", lat)
					res.SimCycles += rec.WallCycles
					res.AnalyzeKeys = append(res.AnalyzeKeys, k)
				}
			}
			for c, k := range rd.Keys {
				if rd.Kind != repeat && (c == 0 || k != rd.Keys[0]) {
					answered = append(answered, k)
				}
			}
		}
		res.add("epoch", time.Since(t0))
	}
	res.FreshKeys = len(fresh)
}

// checkAnalyze requires a non-degraded answer for the requested bench and
// one fingerprint per key across fresh, coalesced and cached answers.
func checkAnalyze(k akey, rec api.Recommendation, fps map[akey]string) error {
	switch {
	case rec.Degraded:
		return fmt.Errorf("degraded answer: %s", rec.Warning)
	case rec.Bench != k.Bench:
		return fmt.Errorf("answer for bench %q", rec.Bench)
	case rec.WallCycles <= 0:
		return fmt.Errorf("wall cycles %d", rec.WallCycles)
	case rec.Fingerprint == "":
		return errors.New("no fingerprint")
	}
	if fp, ok := fps[k]; ok && fp != rec.Fingerprint {
		return fmt.Errorf("fingerprint %s, earlier answer %s", rec.Fingerprint, fp)
	}
	fps[k] = rec.Fingerprint
	return nil
}

func livePlace(ctx context.Context, cli *client.Client, seed uint64, seconds time.Duration, res *liveResult, tr *tracer) {
	start := time.Now()
	for k := 0; k == 0 || (time.Since(start) < seconds && ctx.Err() == nil); k++ {
		req := placeRequest(seed, k)
		res.PlaceReqs = append(res.PlaceReqs, req)
		var resp api.PlaceResponse
		var err error
		d := tr.do("client.place", uint64(k), 0, func() {
			resp, err = cli.Place(ctx, req)
		})
		res.Attempted++
		if err != nil {
			res.fail("place %d: %v", k, err)
			continue
		}
		if err := checkPlace(req, resp); err != nil {
			res.fail("place %d: %v", k, err)
			continue
		}
		res.Ops++
		res.FreshKeys++
		res.add("place", d)
		res.Pairs += len(resp.PairScores)
		for _, p := range resp.PairScores {
			res.SimCycles += p.WallCycles
		}
	}
}

// checkPlace requires a legal, complete, non-degraded assignment: every
// thread placed once, at most maxPerCore threads on a core, no
// anti-affinity pair sharing a core, and the expected pair count scored.
func checkPlace(req api.PlaceRequest, resp api.PlaceResponse) error {
	d := archByName(req.Arch)
	maxPer := req.MaxPerCore
	if maxPer == 0 {
		maxPer = d.MaxSMT
	}
	if resp.Degraded {
		return fmt.Errorf("degraded answer: %s", resp.Warning)
	}
	if len(resp.PairScores) != placePairs {
		return fmt.Errorf("%d pair scores, want %d", len(resp.PairScores), placePairs)
	}
	want := map[string]int{}
	for _, w := range req.Workloads {
		want[w.Name] = max(w.Threads, 1)
	}
	got := map[string]int{}
	cores := map[[2]int]bool{}
	for _, a := range resp.Assignments {
		if a.Chip != 0 || a.Core < 0 || a.Core >= d.CoresPerChip || cores[[2]int{a.Chip, a.Core}] {
			return fmt.Errorf("bad or repeated core %d/%d", a.Chip, a.Core)
		}
		cores[[2]int{a.Chip, a.Core}] = true
		if len(a.Threads) == 0 || len(a.Threads) > maxPer {
			return fmt.Errorf("core %d holds %d threads (max %d)", a.Core, len(a.Threads), maxPer)
		}
		on := map[string]bool{}
		for _, t := range a.Threads {
			got[t]++
			on[t] = true
		}
		for _, r := range req.AntiAffinity {
			if on[r.A] && on[r.B] {
				return fmt.Errorf("anti-affine %s and %s share core %d", r.A, r.B, a.Core)
			}
		}
	}
	for name, n := range want {
		if got[name] != n {
			return fmt.Errorf("workload %s: %d threads placed, want %d", name, got[name], n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d workloads placed, want %d", len(got), len(want))
	}
	for _, p := range resp.PairScores {
		if math.IsNaN(p.Score) || math.IsInf(p.Score, 0) || p.WallCycles <= 0 {
			return fmt.Errorf("pair %s×%s: score %v after %d cycles", p.A, p.B, p.Score, p.WallCycles)
		}
	}
	return nil
}

// campaignWorkers is the campaign's runner pool size.
const campaignWorkers = 2

// newCampaign builds a fresh campaign as every sweep does: its sweep specs
// (new matrices, so every cache starts empty) and its runner. Building it
// is campaign's set-up.
func newCampaign(seed uint64, onEvent func(experiments.Event)) ([]experiments.SweepSpec, experiments.Runner) {
	return campaignSpecs(seed), experiments.Runner{Workers: campaignWorkers, Now: time.Now, OnEvent: onEvent}
}

func liveCampaign(ctx context.Context, seed uint64, seconds time.Duration, res *liveResult, tr *tracer) {
	var cellTime, elapsed time.Duration
	for k := 0; k < campaignSweeps(seconds) && ctx.Err() == nil; k++ {
		var sweep int
		specs, r := newCampaign(seed, func(ev experiments.Event) {
			res.Attempted++
			if ev.Err != nil {
				res.fail("cell %s %s@SMT%d: %v", ev.Ref.Sys, ev.Ref.Bench, ev.Ref.SMT, ev.Err)
				return
			}
			res.Ops++
			res.add("cell", ev.Elapsed)
			end := time.Now()
			tr.record("experiments.cell", uint64(k), sweep, end.Add(-ev.Elapsed), end)
		})
		sweep = tr.begin("experiments.sweep", uint64(k), 0)
		ops0 := res.Ops
		stats, err := r.Campaign(ctx, specs)
		tr.end(sweep)
		if err != nil || stats.Failed > 0 || stats.Skipped > 0 {
			res.fail("campaign sweep %d: %d failed, %d skipped, err %v", k, stats.Failed, stats.Skipped, err)
		}
		res.add("sweep", stats.Elapsed)
		res.Rates = append(res.Rates, float64(res.Ops-ops0)/stats.Elapsed.Seconds())
		cellTime += stats.CellTime
		elapsed += stats.Elapsed
		// Every sweep builds the same cells from the same seed, so each
		// must end after the same wall cycles as in earlier sweeps.
		for _, sp := range specs {
			for _, c := range sp.Matrix.Cached() {
				res.SimCycles += c.Wall
				ref := cellRef{Sys: sp.Matrix.Sys.Name, Bench: c.Bench, SMT: c.SMT, Seed: sp.Matrix.Seed}
				if prev, ok := res.CellWalls[ref]; ok && prev != c.Wall {
					res.fail("cell %s %s@SMT%d: %d wall cycles, earlier sweep %d", ref.Sys, ref.Bench, ref.SMT, c.Wall, prev)
				}
				res.CellWalls[ref] = c.Wall
			}
		}
		// Drop the finished sweep's matrices, machines and programs before
		// the next one builds its own, so the peak RSS is one sweep's and
		// does not depend on when the collector last ran.
		specs = nil
		runtime.GC()
	}
	if elapsed > 0 {
		res.RunnerUtil = float64(cellTime) / (float64(elapsed) * campaignWorkers)
	}
}

// referenceKey is the analyze key of the reference replays: MG, the
// cheapest analyze bench, under a seed derived from the run's seed.
func referenceKey(seed uint64) akey { return akey{Bench: "MG", Seed: seed | 1} }

// referenceBurst sends one burst round (both clients send the reference
// key at once) to a fresh fleet, checks both answers, and returns the
// probes the fleet ran for that one fresh key: ideally 1, the second
// request joining the first one's flight.
func (rp *replayer) referenceBurst(ctx context.Context, seed uint64) (float64, error) {
	f, err := startFleet(ctx)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	k := referenceKey(seed)
	var recs [2]api.Recommendation
	var errs [2]error
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int, id uint64) {
			defer wg.Done()
			rp.tr.do("client.analyze", id, 0, func() { recs[c], errs[c] = f.cli.Analyze(ctx, k.request()) })
		}(c, rp.req())
	}
	wg.Wait()
	fps := map[akey]string{}
	for c := range recs {
		rp.attempts++
		if errs[c] == nil {
			errs[c] = checkAnalyze(k, recs[c], fps)
		}
		if errs[c] != nil {
			rp.fail("reference burst: %v", errs[c])
		}
	}
	v, err := f.vars(ctx)
	return v.Probes, err
}
