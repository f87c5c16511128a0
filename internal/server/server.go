// Package server implements smtservd's serving path: a long-running HTTP
// advisor that turns counter observations and workload descriptions into
// SMT-level recommendations with the full SMT-selection-metric breakdown.
//
// It is the paper's Section V use-case lifted into a production shape:
//
//   - POST /v1/metric   — score a counter snapshot the client measured
//     itself (the PMU-sampling path of an online optimizer);
//   - POST /v1/analyze  — probe a described workload on the simulated
//     machine at the maximum SMT level and recommend a level for it;
//   - POST /v1/place    — co-simulate a workload mix pairwise and assign
//     every thread to a core (internal/placement);
//   - GET  /healthz     — liveness/readiness (503 while draining);
//   - GET  /debug/vars  — expvar-style metrics document.
//
// The serving path is hardened the way a heavy-traffic deployment needs:
// bounded worker concurrency with a bounded waiting queue and 429
// load-shedding beyond it and an LRU recommendation cache keyed by
// canonical request fingerprints. One generic serving ladder (ladder.go)
// carries every endpoint through the cache, flight coalescing
// (coalesce.go), admission, the probe circuit breaker and graceful
// degradation; the handlers supply only decoding, the key and the
// computation. The request shell around the routes — per-request timeout
// wired through context, body limit, JSON access log and graceful drain
// (in-flight requests finish; health flips to 503 so load balancers stop
// sending new work) — is internal/httpd, shared with smtrouter.
package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/httpd"
	"repro/internal/placement"
	"repro/internal/workload"
)

// Config tunes the advisor service.
type Config struct {
	// Arch is the default architecture for requests that name none:
	// "power7", "nehalem" or "smt8".
	Arch string
	// Chips is the default chip count for analyze probes (>= 1).
	Chips int
	// Threshold is the default decision threshold (> 0); requests may
	// override it per call.
	Threshold float64
	// Workers bounds concurrently served requests (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker before the server
	// sheds load with 429 (0 = 2×Workers).
	QueueDepth int
	// RequestTimeout is the per-request budget wired through context into
	// the simulator (0 = 30s).
	RequestTimeout time.Duration
	// CacheSize is the LRU recommendation-cache capacity in entries
	// (0 = 1024; negative disables caching).
	CacheSize int
	// CacheTTL is how long a cached recommendation stays fresh. Beyond it
	// the entry is revalidated by a new probe, and only served again —
	// marked degraded — when revalidation is impossible (0 = entries never
	// go stale, the pre-degradation behaviour).
	CacheTTL time.Duration
	// BreakerThreshold is the number of consecutive probe failures that
	// opens the probe circuit breaker (0 = 5; negative disables the
	// breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open trial probe (0 = 10s).
	BreakerCooldown time.Duration
	// Faults optionally injects scheduled faults into the probe and cache
	// paths for chaos testing (nil = no injection; see internal/fault).
	Faults *fault.Injector
	// AccessLog receives one JSON line per request (nil = no logging).
	AccessLog io.Writer
}

// withDefaults fills zero values with production defaults.
func (c Config) withDefaults() Config {
	if c.Arch == "" {
		c.Arch = "power7"
	}
	if c.Chips == 0 {
		c.Chips = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	if c.Chips < 1 {
		return fmt.Errorf("server: chips %d, need >= 1", c.Chips)
	}
	if !(c.Threshold > 0) || math.IsInf(c.Threshold, 0) {
		return fmt.Errorf("server: threshold %v, need a positive finite value", c.Threshold)
	}
	if c.Workers < 1 {
		return fmt.Errorf("server: workers %d, need >= 1", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: negative queue depth %d", c.QueueDepth)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("server: negative request timeout %v", c.RequestTimeout)
	}
	if c.CacheTTL < 0 {
		return fmt.Errorf("server: negative cache TTL %v", c.CacheTTL)
	}
	if c.BreakerCooldown < 0 {
		return fmt.Errorf("server: negative breaker cooldown %v", c.BreakerCooldown)
	}
	return nil
}

// probeFunc runs one analyze probe; swapped by tests to control timing.
type probeFunc func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error)

// placeFunc runs one placement co-simulation; swapped by tests to control
// timing and failure modes.
type placeFunc func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error)

// Server is the advisor service. Build one with New, mount Handler on an
// http.Server, and call BeginDrain before http.Server.Shutdown.
type Server struct {
	cfg         Config
	defaultArch *arch.Desc
	lim         *limiter
	cache       *lruCache
	brk         *breaker
	met         *metrics
	mux         *http.ServeMux
	shell       *httpd.Shell
	// recs serves recommendations (/v1/metric, /v1/analyze), places
	// placements (/v1/place).
	recs   *ladder[Recommendation]
	places *ladder[api.PlaceResponse]
	probe  probeFunc
	place  placeFunc
	pool   *cpu.Pool
	progs  *workload.Cache
}

// New builds the service from a validated configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d, err := arch.ByName(cfg.Arch)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		defaultArch: d,
		lim:         newLimiter(cfg.Workers, cfg.QueueDepth),
		cache:       newLRUCache(cfg.CacheSize),
		brk:         newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		met:         &metrics{},
		// At most Workers probes run at once, so Workers machines per
		// (arch, chips) key covers the steady state.
		pool: cpu.NewPool(cfg.Workers),
		// Compiled-workload cache shared by probes, placement pair co-runs
		// and every coalesced flight: repeat specs skip validation and
		// table derivation and stamp instances from one immutable Program.
		progs: workload.NewCache(0),
	}
	s.recs = &ladder[Recommendation]{
		s: s, noun: "recommendation", op: "probe",
		fields: func(r *Recommendation) (*bool, *bool, *string) {
			return &r.Cached, &r.Degraded, &r.Warning
		},
		flights:   newFlightGroup[Recommendation](),
		coalesced: &s.met.coalesced,
	}
	s.places = &ladder[api.PlaceResponse]{
		s: s, noun: "placement", op: "placement",
		fields: func(p *api.PlaceResponse) (*bool, *bool, *string) {
			return &p.Cached, &p.Degraded, &p.Warning
		},
		flights:   newFlightGroup[api.PlaceResponse](),
		coalesced: &s.met.placeCoalesced,
	}
	prober := &controller.Prober{Pool: s.pool, Cache: s.progs}
	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		// Scheduled faults fire before the real probe: an injected delay
		// eats into the request budget, an injected error or hang takes
		// the same degradation path a sick simulator would.
		if err := cfg.Faults.Inject(ctx, fault.OpProbe); err != nil {
			return controller.ProbeResult{}, err
		}
		return prober.Probe(ctx, d, chips, spec, seed)
	}
	// The placement engine shares the probe path's pooled machines and
	// compiled-program cache; faults injected on the probe op hit it too,
	// so the chaos schedule exercises both endpoints.
	engine := &placement.Engine{Pool: s.pool, Cache: s.progs}
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		if err := cfg.Faults.Inject(ctx, fault.OpProbe); err != nil {
			return api.PlaceResponse{}, err
		}
		return engine.Place(ctx, in)
	}
	s.shell = httpd.NewShell(cfg.RequestTimeout, cfg.AccessLog, time.Now, s.met.observe)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", s.shell.Vars(s.vars))
	s.mux.HandleFunc("POST /v1/metric", s.handleMetric)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/place", s.handlePlace)
	return s, nil
}

// Handler returns the full request pipeline: routing behind the shared
// request shell (timeout, body limit, metrics and access log).
func (s *Server) Handler() http.Handler { return s.shell.Wrap(s.mux) }

// BeginDrain flips the server into draining mode: /healthz answers 503 so
// load balancers stop routing here, while in-flight and queued requests run
// to completion. Call it just before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.shell.BeginDrain() }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.shell.Draining() }

// handleHealthz answers liveness probes; a draining server reports 503 so
// balancers stop sending new work while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.shell.Draining() {
		httpd.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	httpd.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
