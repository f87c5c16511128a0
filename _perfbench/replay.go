package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/smtsm"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// layerValues maps per-layer metric names to values.
type layerValues map[string]float64

// fill copies the values of other that lv lacks.
func (lv layerValues) fill(other layerValues) {
	for k, v := range other {
		if _, ok := lv[k]; !ok {
			lv[k] = v
		}
	}
}

// replayer replays served requests through the public entry points of
// each layer, in process, with a span around every call. Its own machine
// pools and program caches start empty, like a freshly started advisor.
type replayer struct {
	failLog
	tr       *tracer
	attempts int
	nextReq  uint64

	progs []*workload.Cache
	pools []*cpu.Pool
}

func (rp *replayer) req() uint64 {
	rp.nextReq++
	return 1<<48 | rp.nextReq
}

func (rp *replayer) newCache() *workload.Cache {
	c := workload.NewCache(0)
	rp.progs = append(rp.progs, c)
	return c
}

func (rp *replayer) newPool(perKey int) *cpu.Pool {
	p := cpu.NewPool(perKey)
	rp.pools = append(rp.pools, p)
	return p
}

// hitRates returns the replay's program-cache and machine-pool hit rates.
func (rp *replayer) hitRates() (prog, pool float64) {
	var ph, pm, mh, mm float64
	for _, c := range rp.progs {
		s := c.Stats()
		ph, pm = ph+float64(s.Hits), pm+float64(s.Misses)
	}
	for _, p := range rp.pools {
		s := p.Stats()
		mh, mm = mh+float64(s.Hits), mm+float64(s.Misses)
	}
	return ratio(ph, ph+pm), ratio(mh, mh+mm)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median of ds in the given unit.
func medianOf(ds []time.Duration, unit time.Duration) float64 { return median(scaled(ds, unit)) }

// putMedian sets lv[name] to the median of ds in unit, unless ds is empty.
func (lv layerValues) putMedian(name string, ds []time.Duration, unit time.Duration) {
	if len(ds) > 0 {
		lv[name] = medianOf(ds, unit)
	}
}

// serveInMemory runs one request through h without a network hop.
func serveInMemory(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// metric replays metric requests against a fresh fleet. Per request it
// serves the body in memory on the owning shard (cache state as in the
// schedule), again on that shard (a hit), through the router in memory
// (which forwards over loopback), and through the client over loopback.
// Router hop = router − shard hit; client overhead = client − router.
func (rp *replayer) metric(ctx context.Context, reqs []api.MetricRequest) (layerValues, fleetVars, error) {
	f, err := startFleet(ctx)
	if err != nil {
		return nil, fleetVars{}, err
	}
	defer f.stop()
	var dec, enc, fp, comp, handler, hop, over []time.Duration
	for _, req := range reqs {
		id := rp.req()
		rp.attempts++
		root := rp.tr.begin("replay.metric", id, 0)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fleetVars{}, err
		}
		var in api.MetricRequest
		var derr error
		dec = append(dec, rp.tr.do("api.decode", id, root, func() { derr = json.Unmarshal(body, &in) }))
		if derr != nil {
			rp.fail("metric replay decode: %v", derr)
			rp.tr.end(root)
			continue
		}
		var key uint64
		fp = append(fp, rp.tr.do("counters.fingerprint", id, root, func() { key = in.Snapshot.Fingerprint() }))
		d := archByName(in.Arch)
		comp = append(comp, rp.tr.do("smtsm.compute", id, root, func() { smtsm.Compute(d, &in.Snapshot) }))
		shard := f.shards[owner(key)].Handler()
		var status [3]int
		var out []byte
		handler = append(handler, rp.tr.do("server.handler", id, root, func() { status[0], _ = serveInMemory(shard, api.PathMetric, body) }))
		hit := rp.tr.do("server.handler_hit", id, root, func() { status[1], _ = serveInMemory(shard, api.PathMetric, body) })
		rt := rp.tr.do("router.handler", id, root, func() { status[2], out = serveInMemory(f.router.Handler(), api.PathMetric, body) })
		var rec api.Recommendation
		var cerr error
		cl := rp.tr.do("client.call", id, root, func() { rec, cerr = f.cli.Metric(ctx, req) })
		hop = append(hop, rt-hit)
		over = append(over, cl-rt)
		enc = append(enc, rp.tr.do("api.encode", id, root, func() { _, _ = json.Marshal(rec) }))
		rp.tr.end(root)
		var routed api.Recommendation
		switch {
		case status != [3]int{200, 200, 200}:
			rp.fail("metric replay: statuses %v", status)
		case cerr != nil:
			rp.fail("metric replay: %v", cerr)
		case json.Unmarshal(out, &routed) != nil || routed.Fingerprint != rec.Fingerprint:
			rp.fail("metric replay: router and client answers differ")
		default:
			if err := checkMetric(req, rec); err != nil {
				rp.fail("metric replay: %v", err)
			}
		}
	}
	vars, err := f.vars(ctx)
	if err != nil {
		return nil, fleetVars{}, err
	}
	lv := layerValues{}
	lv.putMedian("api.decode_us", dec, time.Microsecond)
	lv.putMedian("api.encode_us", enc, time.Microsecond)
	lv.putMedian("counters.fingerprint_ns", fp, time.Nanosecond)
	lv.putMedian("smtsm.compute_ns", comp, time.Nanosecond)
	lv.putMedian("server.metric_handler_us", handler, time.Microsecond)
	lv.putMedian("router.hop_us", hop, time.Microsecond)
	lv.putMedian("client.overhead_us", over, time.Microsecond)
	return lv, vars, nil
}

// simSteps accumulates the step timings of replayed simulations.
type simSteps struct {
	poolGet, compile, instantiate, counters []time.Duration
	runCycles, runTime                      map[int]float64 // by SMT level
	allocs, mcycles                         float64
	fingerprint, compute                    []time.Duration
}

func newSimSteps() *simSteps {
	return &simSteps{runCycles: map[int]float64{}, runTime: map[int]float64{}}
}

// program fetches a compiled program through c inside a span named after
// the outcome: workload.compile on a miss, workload.get_hit on a hit.
func (rp *replayer) program(st *simSteps, c *workload.Cache, id uint64, parent int, spec *workload.Spec, threads int, seed uint64) (*workload.Program, time.Duration, error) {
	misses := c.Stats().Misses
	t0 := time.Now()
	prog, err := c.Get(spec, threads, seed)
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	if c.Stats().Misses > misses {
		rp.tr.record("workload.compile", id, parent, t0, t1)
		st.compile = append(st.compile, t1.Sub(t0))
	} else {
		rp.tr.record("workload.get_hit", id, parent, t0, t1)
	}
	return prog, t1.Sub(t0), nil
}

// simulate replays one solo run the way controller.Prober.Probe and the
// experiment matrix do it: pool get, program fetch, instantiate, run,
// counters, metric. It returns the snapshot fingerprint, the run's wall
// cycles and the summed duration of its child calls.
func (rp *replayer) simulate(ctx context.Context, st *simSteps, pool *cpu.Pool, c *workload.Cache, id uint64, parent int, d *arch.Desc, smt int, spec *workload.Spec, seed uint64, maxCycles int64) (uint64, int64, time.Duration, error) {
	var m *cpu.Machine
	var err error
	get := rp.tr.do("cpu.pool_get", id, parent, func() { m, err = pool.Get(d, 1) })
	st.poolGet = append(st.poolGet, get)
	if err != nil {
		return 0, 0, 0, err
	}
	defer pool.Put(m)
	if smt != 0 {
		if err := m.SetSMTLevel(smt); err != nil {
			return 0, 0, 0, err
		}
	}
	prog, fetch, err := rp.program(st, c, id, parent, spec, m.HardwareThreads(), seed)
	if err != nil {
		return 0, 0, 0, err
	}
	var inst *workload.Instance
	stamp := rp.tr.do("workload.instantiate", id, parent, func() { inst = prog.Instantiate() })
	st.instantiate = append(st.instantiate, stamp)
	// ReadMemStats stops the world, so it stays outside every span.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var wall int64
	run := rp.tr.do("cpu.run", id, parent, func() { wall, err = m.RunContext(ctx, inst.Sources(), maxCycles) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return 0, 0, 0, err
	}
	lvl := m.SMTLevel()
	st.runCycles[lvl] += float64(wall)
	st.runTime[lvl] += run.Seconds()
	st.allocs += float64(ms1.Mallocs - ms0.Mallocs)
	st.mcycles += float64(wall) / 1e6
	var snap counters.Snapshot
	read := rp.tr.do("cpu.counters", id, parent, func() { snap = m.Counters() })
	st.counters = append(st.counters, read)
	comp := rp.tr.do("smtsm.compute", id, parent, func() { smtsm.Compute(d, &snap) })
	st.compute = append(st.compute, comp)
	var fp uint64
	hash := rp.tr.do("counters.fingerprint", id, parent, func() { fp = snap.Fingerprint() })
	st.fingerprint = append(st.fingerprint, hash)
	return fp, wall, get + fetch + stamp + run + read + comp + hash, nil
}

// values renders the accumulated step timings as layer metrics.
func (st *simSteps) values() layerValues {
	lv := layerValues{}
	lv.putMedian("cpu.pool_get_us", st.poolGet, time.Microsecond)
	lv.putMedian("workload.instantiate_us", st.instantiate, time.Microsecond)
	lv.putMedian("workload.compile_ms", st.compile, time.Millisecond)
	lv.putMedian("counters.fingerprint_ns", st.fingerprint, time.Nanosecond)
	lv.putMedian("smtsm.compute_ns", st.compute, time.Nanosecond)
	for lvl, cyc := range st.runCycles {
		lv[fmt.Sprintf("cpu.run_mcycles_per_s.smt%d", lvl)] = cyc / 1e6 / st.runTime[lvl]
	}
	if st.mcycles > 0 {
		lv["cpu.run_allocs_per_mcycle"] = st.allocs / st.mcycles
	}
	return lv
}

// analyze replays analyze keys on POWER7 (the fleet's default machine):
// once through controller.Prober.Probe and once step by step. Both
// snapshot fingerprints must equal the one the fleet served for the key.
// Controller self time = Probe − the step replay's child calls. It is a
// difference of two runs of the same simulation, so its noise floor is
// cpu.run's run-to-run jitter and a single key can read negative.
func (rp *replayer) analyze(ctx context.Context, keys []akey, served map[akey]string) (layerValues, error) {
	d := arch.POWER7()
	prober := &controller.Prober{Pool: rp.newPool(1), Cache: rp.newCache()}
	pool, progs := rp.newPool(1), rp.newCache()
	st := newSimSteps()
	var dec, enc, probe, self []time.Duration
	for _, k := range keys {
		id := rp.req()
		rp.attempts++
		root := rp.tr.begin("replay.analyze", id, 0)
		body, err := json.Marshal(k.request())
		if err != nil {
			return nil, err
		}
		var in api.AnalyzeRequest
		var derr error
		dec = append(dec, rp.tr.do("api.decode", id, root, func() { derr = json.Unmarshal(body, &in) }))
		spec := in.Spec
		if derr != nil || spec == nil {
			rp.fail("analyze replay %s: decode %v", k.Bench, derr)
			rp.tr.end(root)
			continue
		}
		var res controller.ProbeResult
		var perr error
		pd := rp.tr.do("controller.probe", id, root, func() { res, perr = prober.Probe(ctx, d, 1, spec, in.Seed) })
		steps := rp.tr.begin("replay.probe_steps", id, root)
		fp, _, child, serr := rp.simulate(ctx, st, pool, progs, id, steps, d, 0, spec, in.Seed, 0)
		rp.tr.end(steps)
		rec := api.Recommendation{Arch: d.Name, Metric: res.Metric.Value, WallCycles: res.WallCycles,
			Bench: spec.Name, Fingerprint: fmt.Sprintf("%016x", res.Snapshot.Fingerprint())}
		enc = append(enc, rp.tr.do("api.encode", id, root, func() { _, _ = json.Marshal(rec) }))
		rp.tr.end(root)
		if perr != nil || serr != nil {
			rp.fail("analyze replay %s: probe %v, steps %v", k.Bench, perr, serr)
			continue
		}
		probe = append(probe, pd)
		self = append(self, pd-child)
		if want, ok := served[k]; ok && rec.Fingerprint != want {
			rp.fail("analyze replay %s: Prober.Probe fingerprint %s, served %s", k.Bench, rec.Fingerprint, want)
		}
		if got := fmt.Sprintf("%016x", fp); got != rec.Fingerprint {
			rp.fail("analyze replay %s: step replay fingerprint %s, Prober.Probe %s", k.Bench, got, rec.Fingerprint)
		}
	}
	lv := st.values()
	lv.putMedian("api.decode_us", dec, time.Microsecond)
	lv.putMedian("api.encode_us", enc, time.Microsecond)
	lv.putMedian("controller.probe_s", probe, time.Second)
	lv.putMedian("controller.self_ms", self, time.Millisecond)
	return lv, nil
}

// place replays place requests: placement.Resolve and Engine.Place in
// process, then the same pair co-runs straight through Machine.RunBatch
// (one single-chip group per pair, both threads on core 0, capped at the
// engine's score cycles, in the engine's chunk size).
func (rp *replayer) place(ctx context.Context, reqs []api.PlaceRequest) (layerValues, error) {
	eng := &placement.Engine{Pool: rp.newPool(2), Cache: rp.newCache()}
	pool, progs := rp.newPool(2), rp.newCache()
	st := newSimSteps()
	var dec, enc, resolve, place []time.Duration
	var pairs, placeSecs, batchCycles, batchSecs float64
	for _, req := range reqs {
		id := rp.req()
		rp.attempts++
		root := rp.tr.begin("replay.place", id, 0)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		var in api.PlaceRequest
		var derr error
		dec = append(dec, rp.tr.do("api.decode", id, root, func() { derr = json.Unmarshal(body, &in) }))
		d := archByName(in.Arch)
		var pin *placement.Input
		var rerr error
		resolve = append(resolve, rp.tr.do("placement.resolve", id, root, func() { pin, rerr = placement.Resolve(d, 1, in) }))
		if derr != nil || rerr != nil {
			rp.fail("place replay: decode %v, resolve %v", derr, rerr)
			rp.tr.end(root)
			continue
		}
		var resp api.PlaceResponse
		var perr error
		pd := rp.tr.do("placement.place", id, root, func() { resp, perr = eng.Place(ctx, pin) })
		enc = append(enc, rp.tr.do("api.encode", id, root, func() { _, _ = json.Marshal(resp) }))
		if perr == nil {
			perr = checkPlace(req, resp)
		}
		if perr != nil {
			rp.fail("place replay: %v", perr)
			rp.tr.end(root)
			continue
		}
		place = append(place, pd)
		pairs += float64(len(resp.PairScores))
		placeSecs += pd.Seconds()
		cyc, secs, err := rp.batch(ctx, st, pool, progs, id, root, pin, resp.PairScores)
		rp.tr.end(root)
		if err != nil {
			rp.fail("place replay batch: %v", err)
			continue
		}
		batchCycles += cyc
		batchSecs += secs
	}
	lv := st.values()
	lv.putMedian("api.decode_us", dec, time.Microsecond)
	lv.putMedian("api.encode_us", enc, time.Microsecond)
	lv.putMedian("placement.resolve_us", resolve, time.Microsecond)
	lv.putMedian("placement.place_s", place, time.Second)
	if placeSecs > 0 {
		lv["placement.pairs_per_s"] = pairs / placeSecs
	}
	if batchSecs > 0 {
		lv["cpu.batch_mcycles_per_s"] = batchCycles / 1e6 / batchSecs
	}
	return lv, nil
}

// batch co-runs every pair the engine scores for in, chunked as the engine
// chunks them, and returns the summed group wall cycles and RunBatch time.
// It mirrors the engine's pair order and seeding, so each group must end
// after exactly the wall cycles of the engine's score for that pair,
// scores[k] in engine order; a mismatch fails the replay.
func (rp *replayer) batch(ctx context.Context, st *simSteps, pool *cpu.Pool, progs *workload.Cache, id uint64, parent int, in *placement.Input, scores []api.PairScore) (float64, float64, error) {
	anti := map[[2]int]bool{}
	for _, a := range in.Anti {
		anti[a] = true
	}
	var groups [][]isa.Source
	var names [][2]string
	for i := range in.Workloads {
		for j := i; j < len(in.Workloads); j++ {
			if (i == j && in.Workloads[i].Threads < 2) || anti[[2]int{i, j}] {
				continue
			}
			src, err := rp.pairSources(st, progs, id, parent, in, i, j)
			if err != nil {
				return 0, 0, err
			}
			groups = append(groups, src)
			names = append(names, [2]string{in.Workloads[i].Name, in.Workloads[j].Name})
		}
	}
	if len(groups) != len(scores) {
		return 0, 0, fmt.Errorf("%d pairs co-run, engine scored %d", len(groups), len(scores))
	}
	var cycles, secs float64
	for start := 0; start < len(groups); start += placement.DefaultMaxChunk {
		chunk := groups[start:min(start+placement.DefaultMaxChunk, len(groups))]
		var m *cpu.Machine
		var err error
		st.poolGet = append(st.poolGet, rp.tr.do("cpu.pool_get", id, parent, func() { m, err = pool.Get(in.Desc, len(chunk)) }))
		if err != nil {
			return 0, 0, err
		}
		var res []cpu.BatchResult
		d := rp.tr.do("cpu.batch", id, parent, func() { res, err = m.RunBatch(ctx, chunk, 1, placement.DefaultScoreCycles) })
		pool.Put(m)
		if err != nil {
			return 0, 0, err
		}
		for g, r := range res {
			k := start + g
			want := scores[k]
			switch {
			case r.Err != nil && !errors.Is(r.Err, cpu.ErrCycleLimit):
				return 0, 0, fmt.Errorf("pair %s×%s: %w", names[k][0], names[k][1], r.Err)
			case names[k] != [2]string{want.A, want.B} || r.Wall != want.WallCycles:
				return 0, 0, fmt.Errorf("pair %d: co-run %s×%s ended after %d cycles, engine scored %s×%s after %d",
					k, names[k][0], names[k][1], r.Wall, want.A, want.B, want.WallCycles)
			}
			cycles += float64(r.Wall)
		}
		secs += d.Seconds()
	}
	return cycles, secs, nil
}

// pairSources instantiates one pair co-run with the engine's seeding: a
// workload paired with itself runs two of its threads, two workloads one
// thread each.
func (rp *replayer) pairSources(st *simSteps, progs *workload.Cache, id uint64, parent int, in *placement.Input, i, j int) ([]isa.Source, error) {
	a, b := in.Workloads[i], in.Workloads[j]
	stamp := func(w placement.Workload, threads int, side uint64) ([]isa.Source, error) {
		prog, _, err := rp.program(st, progs, id, parent, w.Spec, threads, pairSeed(in.Seed, a.Name, b.Name, side))
		if err != nil {
			return nil, err
		}
		var inst *workload.Instance
		st.instantiate = append(st.instantiate, rp.tr.do("workload.instantiate", id, parent, func() { inst = prog.Instantiate() }))
		return inst.Sources(), nil
	}
	if i == j {
		return stamp(a, 2, 0)
	}
	sa, err := stamp(a, 1, 0)
	if err != nil {
		return nil, err
	}
	sb, err := stamp(b, 1, 1)
	if err != nil {
		return nil, err
	}
	return []isa.Source{sa[0], sb[0]}, nil
}

// pairSeed mirrors the placement engine's per-side co-run seed.
func pairSeed(seed uint64, a, b string, side uint64) uint64 {
	return xrand.Mix64(seed ^ xrand.Mix64(xrand.HashString(a)^xrand.Mix64(xrand.HashString(b)+side)))
}

// cells replays experiment cells step by step, as Matrix.run computes
// them, giving run speed at each SMT level. A replayed cell the campaign
// served must end after the same wall cycles.
func (rp *replayer) cells(ctx context.Context, cells []cellRef, served map[cellRef]int64) (layerValues, error) {
	pool, progs := rp.newPool(0), rp.newCache()
	st := newSimSteps()
	for _, c := range cells {
		id := rp.req()
		rp.attempts++
		root := rp.tr.begin("replay.cell", id, 0)
		spec, err := workload.Get(c.Bench)
		if err != nil {
			return nil, err
		}
		_, wall, _, err := rp.simulate(ctx, st, pool, progs, id, root, archOf(c.Sys), c.SMT, spec, c.Seed, experiments.MaxRunCycles)
		rp.tr.end(root)
		if err != nil {
			rp.fail("cell replay %s %s@SMT%d: %v", c.Sys, c.Bench, c.SMT, err)
			continue
		}
		if want, ok := served[c]; ok && wall != want {
			rp.fail("cell replay %s %s@SMT%d: %d wall cycles, campaign %d", c.Sys, c.Bench, c.SMT, wall, want)
		}
	}
	return st.values(), nil
}

// cellRef is one experiment cell: a system (by name), bench, SMT level and
// matrix seed.
type cellRef struct {
	Sys   string
	Bench string
	SMT   int
	Seed  uint64
}

// archOf returns the architecture of the campaign system named sys.
func archOf(sys string) *arch.Desc {
	for _, sp := range campaignSpecs(0) {
		if sp.Matrix.Sys.Name == sys {
			return sp.Matrix.Sys.Arch()
		}
	}
	panic("unknown campaign system " + sys) // cellRefs name campaign systems only
}

// campaignCells are the cells replayed step by step: with all set, every
// cell of the campaign; otherwise the first bench on POWER7 at each level,
// so run speed is measured at SMT1, 2 and 4.
func campaignCells(seed uint64, all bool) []cellRef {
	var out []cellRef
	for i, sp := range campaignSpecs(seed) {
		benches := sp.Benches
		if !all {
			if i > 0 {
				break
			}
			benches = benches[:1]
		}
		for _, b := range benches {
			for _, smt := range sp.SMTs {
				out = append(out, cellRef{Sys: sp.Matrix.Sys.Name, Bench: b, SMT: smt, Seed: sp.Matrix.Seed})
			}
		}
	}
	return out
}

// miniCampaign sweeps two cells through an experiments.Runner, for the
// runner's layer metrics on workloads that run no campaign of their own.
func (rp *replayer) miniCampaign(ctx context.Context, seed uint64) layerValues {
	m := experiments.NewMatrix(experiments.P7OneChip, campaignSpecs(seed)[0].Matrix.Seed)
	var cells []time.Duration
	r := experiments.Runner{Workers: campaignWorkers, Now: time.Now, OnEvent: func(ev experiments.Event) {
		rp.attempts++
		if ev.Err != nil {
			rp.fail("mini campaign cell %s@SMT%d: %v", ev.Ref.Bench, ev.Ref.SMT, ev.Err)
			return
		}
		cells = append(cells, ev.Elapsed)
		end := time.Now()
		rp.tr.record("experiments.cell", rp.req(), 0, end.Add(-ev.Elapsed), end)
	}}
	stats, err := r.Sweep(ctx, m, campaignBenches[:1], []int{1, 2})
	if err != nil {
		rp.fail("mini campaign: %v", err)
	}
	lv := layerValues{"experiments.runner_util": ratio(float64(stats.CellTime), float64(stats.Elapsed)*campaignWorkers)}
	lv.putMedian("experiments.cell_s", cells, time.Second)
	return lv
}
