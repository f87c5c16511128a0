package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Every input the benchmark sends is a pure function of the run seed and
// a position in a schedule, so the same seed replays the same requests.

// archByName maps a request architecture name to its description.
func archByName(name string) *arch.Desc {
	switch name {
	case "nehalem":
		return arch.Nehalem()
	case "smt8":
		return arch.GenericSMT8()
	default:
		return arch.POWER7()
	}
}

// metricArchs are the architectures metric-fleet snapshots are drawn on.
var metricArchs = []string{"power7", "nehalem", "smt8"}

// metricRepeatFrac is the share of metric requests that re-send one of the
// client's recent snapshots (LRU hits); metricHistory bounds "recent".
const (
	metricRepeatFrac = 0.5
	metricHistory    = 64
)

// metricGen is one metric-fleet client's request stream.
type metricGen struct {
	rng  *xrand.Rand
	hist []api.MetricRequest
}

func newMetricGen(seed uint64, client int) *metricGen {
	return &metricGen{rng: xrand.New(xrand.Mix64(seed ^ xrand.Mix64(uint64(client)+0x6d657472)))}
}

// next returns the client's next request: a repeat of a recent one or a
// new snapshot.
func (g *metricGen) next() api.MetricRequest {
	if len(g.hist) > 0 && g.rng.Bernoulli(metricRepeatFrac) {
		return g.hist[g.rng.Intn(len(g.hist))]
	}
	name := metricArchs[g.rng.Intn(len(metricArchs))]
	req := api.MetricRequest{Arch: name, Snapshot: genSnapshot(g.rng, archByName(name))}
	if len(g.hist) < metricHistory {
		g.hist = append(g.hist, req)
	} else {
		g.hist[g.rng.Intn(metricHistory)] = req
	}
	return req
}

// genSnapshot draws a plausible one-chip counter snapshot at a random
// exposed SMT level of d.
func genSnapshot(r *xrand.Rand, d *arch.Desc) counters.Snapshot {
	level := d.SMTLevels[r.Intn(len(d.SMTLevels))]
	cores := d.CoresPerChip
	wall := int64(100_000 + r.Intn(900_000))
	coreCycles := uint64(wall) * uint64(cores)
	s := counters.Snapshot{
		WallCycles:     wall,
		ActiveCores:    cores,
		SMTLevel:       level,
		CoreCycles:     coreCycles,
		DispHeldCycles: uint64(float64(coreCycles) * 0.6 * r.Float64()),
		IssuedByPort:   make([]uint64, d.NumPorts),
		ThreadBusy:     make([]int64, cores*level),
	}
	ipc := 0.3 + 1.2*r.Float64()*float64(level)
	s.Retired = uint64(float64(coreCycles) * ipc)
	var w [isa.NumClasses]float64
	sum := 0.0
	for c := range w {
		w[c] = r.Float64()
		sum += w[c]
	}
	for c := range w {
		s.RetiredByClass[c] = uint64(float64(s.Retired) * w[c] / sum)
	}
	for p := range s.IssuedByPort {
		s.IssuedByPort[p] = uint64(float64(s.Retired) * (0.05 + 0.4*r.Float64()))
	}
	for l := 0; l < int(mem.NumLevels); l++ {
		s.HitsByLevel[l] = uint64(float64(s.Retired) * 0.3 * r.Float64())
	}
	s.BranchLookups = s.RetiredByClass[isa.Branch]
	s.BranchMispredicts = uint64(float64(s.BranchLookups) * 0.1 * r.Float64())
	for t := range s.ThreadBusy {
		s.ThreadBusy[t] = int64(float64(wall) * (0.3 + 0.7*r.Float64()))
	}
	s.DramLines = s.HitsByLevel[mem.NumLevels-1]
	s.DramStall = uint64(float64(s.DramLines) * 40 * r.Float64())
	return s
}

// analyzeBenches are the analyze-burst library benches: compute-bound (EP,
// Swaptions), memory-bound (MG, Stream, Canneal) and lock-bound
// (SPECjbb_contention). Every epoch probes each exactly once.
var analyzeBenches = []string{"EP", "Swaptions", "MG", "Stream", "Canneal", "SPECjbb_contention"}

// analyzeWorkDiv scales the benches' total work down for analyze-burst:
// requests carry the library spec inline with a quarter of its work, so a
// fresh probe takes 0.2-1.3 s instead of 0.7-4 s and a run holds enough
// epochs for steady medians. Mix, ILP, working sets, locks and barriers
// keep the bench's character.
const analyzeWorkDiv = 4

// analyzeSpec returns the scaled inline spec analyze-burst sends for bench.
func analyzeSpec(bench string) *workload.Spec {
	base, err := workload.Get(bench)
	if err != nil {
		panic(err) // analyzeBenches names library benches only
	}
	spec := *base
	spec.TotalWork /= analyzeWorkDiv
	return &spec
}

// roundKind is the shape of one analyze-burst round.
type roundKind int

const (
	// burst: both clients send the same new key (one flight, one waiter).
	burst roundKind = iota
	// spread: the clients send two different new keys.
	spread
	// repeat: each client re-sends a key answered in an earlier round.
	repeat
)

func (k roundKind) String() string {
	return [...]string{"burst", "spread", "repeat"}[k]
}

// akey is one analyze cache key: a library bench and a probe seed.
type akey struct {
	Bench string
	Seed  uint64
}

func (k akey) request() api.AnalyzeRequest {
	return api.AnalyzeRequest{Spec: analyzeSpec(k.Bench), Seed: k.Seed}
}

// route is the router's key for k: the hash of the canonical request.
func (k akey) route() uint64 {
	b, err := json.Marshal(k.request())
	if err != nil {
		panic(err) // library specs always marshal
	}
	return xrand.HashBytes(b)
}

// round is one closed-loop step: client i sends Keys[i]; the next round
// starts when both answers are back.
type round struct {
	Kind roundKind
	Keys [2]akey
}

// analyzeEpoch builds epoch e of the analyze-burst schedule: two burst and
// two spread rounds that probe every bench once under fresh seeds, and two
// repeat rounds over keys of earlier rounds, in a seeded order. One spread
// sends two keys the same shard owns, so the second waits in admission;
// the other sends keys of different shards, which probe in parallel.
// prior lists the keys answered before this epoch.
//
// Which bench takes which round is not seeded: epoch e rotates the bench
// list by e. A run of n epochs then holds the same benches in the same
// rounds for every seed, so its makespan measures the code rather than
// how a seed happened to pair long and short probes; the seed still picks
// every probe seed, the round order and the repeated keys.
func analyzeEpoch(seed uint64, e int, prior []akey) []round {
	r := xrand.New(xrand.Mix64(seed ^ xrand.Mix64(uint64(e)+0x616e616c)))
	key := func(i, attempt int) akey {
		bench := analyzeBenches[(i+e)%len(analyzeBenches)]
		return akey{Bench: bench, Seed: xrand.Mix64(seed^xrand.Mix64(uint64(e)<<16|uint64(i)<<8|uint64(attempt))) | 1}
	}
	// partner draws key i's seed until its owning shard is (or is not)
	// the one owning k.
	partner := func(i int, k akey, sameShard bool) akey {
		for attempt := 0; ; attempt++ {
			if p := key(i, attempt); (owner(k.route()) == owner(p.route())) == sameShard {
				return p
			}
		}
	}
	queued, parallel := key(2, 0), key(4, 0)
	rounds := []round{
		{Kind: burst, Keys: [2]akey{key(0, 0), key(0, 0)}},
		{Kind: burst, Keys: [2]akey{key(1, 0), key(1, 0)}},
		{Kind: spread, Keys: [2]akey{queued, partner(3, queued, true)}},
		{Kind: spread, Keys: [2]akey{parallel, partner(5, parallel, false)}},
		{Kind: repeat},
		{Kind: repeat},
	}
	order := permutation(r, len(rounds))
	if e == 0 {
		// A repeat needs an answered key: never open the first epoch with one.
		for i, o := range order {
			if rounds[o].Kind != repeat {
				order[0], order[i] = order[i], order[0]
				break
			}
		}
	}
	out := make([]round, 0, len(rounds))
	seen := append([]akey(nil), prior...)
	for _, o := range order {
		rd := rounds[o]
		if rd.Kind == repeat {
			rd.Keys = [2]akey{seen[r.Intn(len(seen))], seen[r.Intn(len(seen))]}
		} else {
			seen = append(seen, rd.Keys[0])
			if rd.Keys[1] != rd.Keys[0] {
				seen = append(seen, rd.Keys[1])
			}
		}
		out = append(out, rd)
	}
	return out
}

// analyzeEpochNominal is an epoch's length on the 2-vCPU reference host;
// a run measures seconds/analyzeEpochNominal whole epochs, so every run of
// one length does the same work however fast the host is.
const analyzeEpochNominal = 4 * time.Second

func analyzeEpochs(seconds time.Duration) int {
	return max(1, int((seconds+analyzeEpochNominal/2)/analyzeEpochNominal))
}

// permutation returns a seeded Fisher-Yates permutation of 0..n-1.
func permutation(r *xrand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// placeBenches are the benches place-mix draws its 6-workload mixes from.
var placeBenches = []string{"EP", "Swaptions", "MG", "Stream", "Canneal", "SPECjbb_contention", "Equake", "IS", "CG", "Blackscholes"}

// Place mixes run on one Nehalem chip (4 cores × SMT2): 5 single-threaded
// workloads and 1 two-threaded one fill 7 of its 8 contexts, so the solver
// must co-locate, and the free context keeps every greedy order feasible.
// One anti-affinity rule separates two single-threaded workloads, which
// leaves C(6,2) + 1 self-pair − 1 = 15 pairs to score.
const (
	placeArch      = "nehalem"
	placeWorkloads = 6
	placeDoubles   = 1
	placePairs     = placeWorkloads*(placeWorkloads-1)/2 + placeDoubles - 1
)

// placeRequest builds request k of the place-mix schedule. Its own seed
// makes every request a cache miss.
func placeRequest(seed uint64, k int) api.PlaceRequest {
	r := xrand.New(xrand.Mix64(seed ^ xrand.Mix64(uint64(k)+0x706c6163)))
	perm := permutation(r, len(placeBenches))
	req := api.PlaceRequest{Arch: placeArch, Seed: r.Uint64() | 1}
	for i := 0; i < placeWorkloads; i++ {
		w := api.PlaceWorkload{Name: fmt.Sprintf("w%d", i), Bench: placeBenches[perm[i]]}
		if i < placeDoubles {
			w.Threads = 2
		}
		req.Workloads = append(req.Workloads, w)
	}
	a := placeDoubles + r.Intn(placeWorkloads-placeDoubles)
	b := placeDoubles + (a-placeDoubles+1+r.Intn(placeWorkloads-placeDoubles-1))%(placeWorkloads-placeDoubles)
	req.AntiAffinity = []api.AffinityRule{{A: req.Workloads[a].Name, B: req.Workloads[b].Name}}
	return req
}

// campaignBenches and the systems below fix the campaign's cell set:
// POWER7 at SMT1/2/4 and Nehalem at SMT1/2 over three benches, 15 cells.
var campaignBenches = []string{"MG", "Stream", "Equake"}

// campaignSweepNominal is a sweep's length on the 2-vCPU reference host; a
// run measures seconds/campaignSweepNominal whole sweeps.
const campaignSweepNominal = 6 * time.Second

func campaignSweeps(seconds time.Duration) int {
	return max(1, int((seconds+campaignSweepNominal/2)/campaignSweepNominal))
}

// campaignSpecs builds a fresh campaign: new matrices, so every sweep
// starts with empty cell, machine and program caches.
func campaignSpecs(seed uint64) []experiments.SweepSpec {
	ms := xrand.Mix64(seed^0x63616d70) | 1
	return []experiments.SweepSpec{
		{Matrix: experiments.NewMatrix(experiments.P7OneChip, ms), Benches: campaignBenches, SMTs: []int{1, 2, 4}},
		{Matrix: experiments.NewMatrix(experiments.I7OneChip, ms), Benches: campaignBenches, SMTs: []int{1, 2}},
	}
}
