package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/httpd"
	"repro/internal/smtsm"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The wire types live in the public api package — the versioned contract
// both this server and the repro/client package compile against. The
// aliases keep the server's internal code and tests reading naturally.
type (
	// MetricRequest is api.MetricRequest.
	MetricRequest = api.MetricRequest
	// AnalyzeRequest is api.AnalyzeRequest.
	AnalyzeRequest = api.AnalyzeRequest
	// Term is api.Term.
	Term = api.Term
	// Recommendation is api.Recommendation.
	Recommendation = api.Recommendation
)

// reqParams resolves a request's architecture and threshold override,
// falling back to the server defaults for the ones it leaves unset.
func (s *Server) reqParams(archName string, th float64) (*arch.Desc, float64, error) {
	d := s.defaultArch
	if archName != "" {
		var err error
		if d, err = arch.ByName(archName); err != nil {
			return nil, 0, err
		}
	}
	if th == 0 {
		return d, s.cfg.Threshold, nil
	}
	if !(th > 0) || math.IsInf(th, 0) {
		return nil, 0, fmt.Errorf("threshold %v: need a positive finite value", th)
	}
	return d, th, nil
}

// decide fills the decision fields of a recommendation from a breakdown.
func decide(d *arch.Desc, measuredLevel int, m smtsm.Breakdown, th float64) Recommendation {
	rec := Recommendation{
		Arch:             d.Name,
		MeasuredLevel:    measuredLevel,
		RecommendedLevel: measuredLevel,
		Threshold:        th,
		Metric:           m.Value,
		MixDeviation:     m.MixDeviation,
		DispHeld:         m.DispHeld,
		Scalability:      m.Scalability,
	}
	for _, t := range m.Terms {
		rec.Terms = append(rec.Terms, Term{Name: t.Name, Observed: t.Observed, Ideal: t.Ideal})
	}
	if m.Value > th {
		rec.LowerSMT = true
		// Step to the next exposed level below the measured one (stay put
		// when none exists, e.g. a snapshot already at SMT1).
		best := measuredLevel
		for _, l := range d.SMTLevels {
			if l < measuredLevel && (best == measuredLevel || l > best) {
				best = l
			}
		}
		rec.RecommendedLevel = best
	}
	return rec
}

// handleMetric serves POST /v1/metric.
func (s *Server) handleMetric(w http.ResponseWriter, r *http.Request) {
	var req MetricRequest
	if err := httpd.DecodeJSON(r, &req); err != nil {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad metric request: %v", err)
		return
	}
	d, th, err := s.reqParams(req.Arch, req.Threshold)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	key := fmt.Sprintf("metric|%s|%016x|%016x", d.Name, math.Float64bits(th), req.Snapshot.Fingerprint())
	stale, done := s.recs.lookup(r.Context(), w, key)
	if done {
		return
	}
	// Scoring a snapshot costs microseconds, so metric requests take a
	// worker slot directly instead of coalescing on a flight; admission
	// failure falls down the same ladder as a flight's.
	if err := s.acquire(r.Context()); err != nil {
		s.recs.render(w, &flight[Recommendation]{err: err}, stale)
		return
	}
	defer s.lim.release()

	measured := req.Snapshot.SMTLevel
	if measured == 0 {
		measured = d.MaxSMT
	}
	rec := decide(d, measured, smtsm.Compute(d, &req.Snapshot), th)
	rec.Fingerprint = fmt.Sprintf("%016x", req.Snapshot.Fingerprint())
	if measured != d.MaxSMT {
		rec.Warning = fmt.Sprintf("snapshot measured at SMT%d: the metric is only reliable at the maximum level SMT%d", measured, d.MaxSMT)
	}
	s.recs.cacheAdd(r.Context(), key, rec)
	httpd.WriteJSON(w, http.StatusOK, rec)
}

// handleAnalyze serves POST /v1/analyze: a max-SMT probe of the described
// workload, served through the shared ladder. A stale cached
// recommendation (or, failing that, the partial probe result) answers the
// request — marked degraded — when the probe is cut off by the circuit
// breaker, saturation or the request deadline.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := httpd.DecodeJSON(r, &req); err != nil {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad analyze request: %v", err)
		return
	}
	d, th, err := s.reqParams(req.Arch, req.Threshold)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	chips := req.Chips
	if chips == 0 {
		chips = s.cfg.Chips
	}
	if chips < 1 {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "chips %d: need >= 1", req.Chips)
		return
	}
	var spec *workload.Spec
	switch {
	case req.Bench != "" && req.Spec != nil:
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "set either bench or spec, not both")
		return
	case req.Bench != "":
		spec, err = workload.Get(req.Bench)
		if err != nil {
			httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "unknown bench %q (known: %s)",
				req.Bench, strings.Join(workload.Names(), ", "))
			return
		}
	case req.Spec != nil:
		spec = req.Spec // UnmarshalJSON already validated it
	default:
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "one of bench or spec is required")
		return
	}

	specJSON, err := json.Marshal(spec)
	if err != nil {
		httpd.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "canonicalising spec: %v", err)
		return
	}
	key := fmt.Sprintf("analyze|%s|%d|%d|%016x|%016x",
		d.Name, chips, req.Seed, math.Float64bits(th), xrand.HashBytes(specJSON))
	s.recs.serve(w, r, key, func(ctx context.Context) (Recommendation, string, error) {
		s.met.probes.Add(1)
		res, err := s.probe(ctx, d, chips, spec, req.Seed)
		if err != nil && (!aborted(err) || res.Snapshot.Retired == 0) {
			return Recommendation{}, "", err
		}
		rec := decide(d, d.MaxSMT, res.Metric, th)
		rec.WallCycles = res.WallCycles
		rec.Bench = spec.Name
		rec.Fingerprint = fmt.Sprintf("%016x", res.Snapshot.Fingerprint())
		if err != nil {
			// The deadline cut the probe short but completed interval
			// data exists (cpu.RunContext semantics): salvage it.
			return rec, fmt.Sprintf("partial probe: deadline expired after %d simulated cycles", res.WallCycles), err
		}
		return rec, "", nil
	})
}
