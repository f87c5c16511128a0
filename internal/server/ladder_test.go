package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/smtsm"
	"repro/internal/workload"
)

// The degradation ladder, pinned per endpoint. Every row drives one
// request down one rung — shed, queue expiry, open breaker, deadline with
// or without a salvageable partial answer, organic failure — with and
// without a stale cache entry to fall back on, and pins what the client
// sees: status, error code, Retry-After, the Warning header, and the
// Degraded/Cached flags and Warning field of a 200 body.

// ladderRung names one way the fresh path can be cut off.
type ladderRung string

const (
	rungShed           ladderRung = "shed"
	rungQueueExpired   ladderRung = "queue-expired"
	rungBreakerOpen    ladderRung = "breaker-open"
	rungDeadlinePart   ladderRung = "deadline-partial"
	rungDeadlineNoPart ladderRung = "deadline-no-partial"
	rungFailure        ladderRung = "failure"
)

// ladderWant is the client-visible outcome of one row. For a 200 the body
// flags and Warning field are checked; otherwise the bare api.Error
// envelope with code.
type ladderWant struct {
	status     int
	code       string
	retryAfter string
	warnHeader string
	cached     bool
	degraded   bool
	warning    string
}

// ladderEndpoint is one endpoint's request body plus the fake backends
// that make its fresh path succeed or fail on demand.
type ladderEndpoint struct {
	path string
	body string
	// install swaps the server's backend for one that answers per rung
	// ("" = succeed).
	install func(s *Server, rung ladderRung)
}

var ladderErrDeadline = fmt.Errorf("cut short: %w", context.DeadlineExceeded)

var ladderErrOrganic = errors.New("simulator on fire")

func ladderProbe(rung ladderRung) probeFunc {
	return func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		snap := highMetricSnapshot()
		res := controller.ProbeResult{
			WallCycles: int64(snap.WallCycles),
			Snapshot:   snap,
			Metric:     smtsm.Compute(d, &snap),
		}
		switch rung {
		case rungDeadlinePart:
			return res, ladderErrDeadline
		case rungDeadlineNoPart:
			return controller.ProbeResult{}, ladderErrDeadline
		case rungFailure:
			return controller.ProbeResult{}, ladderErrOrganic
		}
		return res, nil
	}
}

func ladderPlace(rung ladderRung) placeFunc {
	return func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		fp, err := in.Fingerprint()
		if err != nil {
			return api.PlaceResponse{}, err
		}
		resp := api.PlaceResponse{
			Arch: in.Desc.Name, Chips: in.Chips, SMTLevel: in.Desc.MaxSMT, MaxPerCore: in.MaxPerCore,
			TotalScore:  0.5,
			Assignments: []api.Assignment{{Chip: 0, Core: 0, Threads: []string{"cpu", "mem"}}},
			PairScores:  []api.PairScore{{A: "cpu", B: "mem", Score: 0.5, WallCycles: 10}},
			Fingerprint: fp,
		}
		switch rung {
		case rungDeadlinePart:
			return resp, ladderErrDeadline
		case rungDeadlineNoPart:
			return api.PlaceResponse{}, ladderErrDeadline
		case rungFailure:
			return api.PlaceResponse{}, ladderErrOrganic
		}
		return resp, nil
	}
}

func ladderEndpoints(t *testing.T) map[string]ladderEndpoint {
	metricBody, err := json.Marshal(MetricRequest{Snapshot: highMetricSnapshot()})
	if err != nil {
		t.Fatal(err)
	}
	analyzeReq, err := json.Marshal(coalesceReq())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ladderEndpoint{
		"metric": {path: "/v1/metric", body: string(metricBody),
			install: func(*Server, ladderRung) {}},
		"analyze": {path: "/v1/analyze", body: string(analyzeReq),
			install: func(s *Server, rung ladderRung) { s.probe = ladderProbe(rung) }},
		"place": {path: "/v1/place", body: placeBodyA,
			install: func(s *Server, rung ladderRung) { s.place = ladderPlace(rung) }},
	}
}

// stale builds the expected 200 of a stale-cache fallback.
func ladderStale(cause, noun string) ladderWant {
	reason := cause + ": serving last known " + noun
	return ladderWant{status: 200, warnHeader: warnHeader(110, reason),
		cached: true, degraded: true, warning: reason}
}

func ladderPartial(reason string) ladderWant {
	return ladderWant{status: 200, warnHeader: warnHeader(199, reason), degraded: true, warning: reason}
}

func ladderError(status int, code, retryAfter string) ladderWant {
	return ladderWant{status: status, code: code, retryAfter: retryAfter}
}

// TestDegradationLadder pins every (endpoint, rung, stale entry) cell of
// the serving ladder.
func TestDegradationLadder(t *testing.T) {
	deadline := ladderErrDeadline.Error()
	organic := ladderErrOrganic.Error()
	rows := []struct {
		endpoint string
		rung     ladderRung
		stale    bool
		want     ladderWant
	}{
		{"metric", rungShed, false, ladderError(429, api.CodeRateLimited, "1")},
		{"metric", rungShed, true, ladderStale("server saturated", "recommendation")},
		{"metric", rungQueueExpired, false, ladderError(503, api.CodeQueueTimeout, "")},
		{"metric", rungQueueExpired, true, ladderStale("request expired while queued", "recommendation")},

		{"analyze", rungShed, false, ladderError(429, api.CodeRateLimited, "1")},
		{"analyze", rungShed, true, ladderStale("server saturated", "recommendation")},
		{"analyze", rungQueueExpired, false, ladderError(503, api.CodeQueueTimeout, "")},
		{"analyze", rungQueueExpired, true, ladderStale("request expired while queued", "recommendation")},
		{"analyze", rungBreakerOpen, false, ladderError(503, api.CodeBreakerOpen, "1")},
		{"analyze", rungBreakerOpen, true, ladderStale("probe circuit breaker open", "recommendation")},
		{"analyze", rungDeadlinePart, false, ladderPartial("partial probe: deadline expired after 10000 simulated cycles")},
		{"analyze", rungDeadlinePart, true, ladderStale("probe aborted ("+deadline+")", "recommendation")},
		{"analyze", rungDeadlineNoPart, false, ladderError(504, api.CodeProbeTimeout, "")},
		{"analyze", rungDeadlineNoPart, true, ladderStale("probe aborted ("+deadline+")", "recommendation")},
		{"analyze", rungFailure, false, ladderError(500, api.CodeProbeFailed, "")},
		{"analyze", rungFailure, true, ladderStale("probe failed ("+organic+")", "recommendation")},

		{"place", rungShed, false, ladderError(429, api.CodeRateLimited, "1")},
		{"place", rungShed, true, ladderStale("server saturated", "placement")},
		{"place", rungQueueExpired, false, ladderError(503, api.CodeQueueTimeout, "")},
		{"place", rungQueueExpired, true, ladderStale("request expired while queued", "placement")},
		{"place", rungBreakerOpen, false, ladderError(503, api.CodeBreakerOpen, "1")},
		{"place", rungBreakerOpen, true, ladderStale("probe circuit breaker open", "placement")},
		{"place", rungDeadlinePart, false, ladderPartial("partial placement: deadline expired with 1 pair scores gathered")},
		{"place", rungDeadlinePart, true, ladderStale("placement aborted ("+deadline+")", "placement")},
		{"place", rungDeadlineNoPart, false, ladderError(504, api.CodeProbeTimeout, "")},
		{"place", rungDeadlineNoPart, true, ladderStale("placement aborted ("+deadline+")", "placement")},
		{"place", rungFailure, false, ladderError(500, api.CodeProbeFailed, "")},
		{"place", rungFailure, true, ladderStale("placement failed ("+organic+")", "placement")},
	}
	endpoints := ladderEndpoints(t)
	for _, row := range rows {
		name := fmt.Sprintf("%s/%s/stale=%v", row.endpoint, row.rung, row.stale)
		t.Run(name, func(t *testing.T) {
			ep := endpoints[row.endpoint]
			clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
			cfg := testConfig()
			cfg.Workers = 1
			cfg.QueueDepth = 1
			cfg.CacheTTL = 10 * time.Second
			cfg.RequestTimeout = 100 * time.Millisecond
			cfg.BreakerThreshold = 1
			cfg.BreakerCooldown = time.Hour
			s := newTestServer(t, cfg)
			s.cache.now = clk.now
			h := s.Handler()

			if row.stale {
				ep.install(s, "")
				if w := postRaw(t, h, ep.path, ep.body); w.Code != 200 {
					t.Fatalf("warm-up status %d: %s", w.Code, w.Body.String())
				}
				clk.advance(time.Minute)
			}
			ep.install(s, row.rung)
			switch row.rung {
			case rungShed:
				// Every worker and queue token taken: admission sheds.
				for i := 0; i < cap(s.lim.queue); i++ {
					s.lim.queue <- struct{}{}
				}
			case rungQueueExpired:
				// The one worker slot is held: the request queues until its
				// deadline expires.
				s.lim.slots <- struct{}{}
			case rungBreakerOpen:
				s.brk.onFailure()
			}

			w := postRaw(t, h, ep.path, ep.body)
			got := ladderWant{
				status:     w.Code,
				retryAfter: w.Header().Get("Retry-After"),
				warnHeader: w.Header().Get("Warning"),
			}
			if w.Code == 200 {
				var body struct {
					Cached   bool   `json:"cached"`
					Degraded bool   `json:"degraded"`
					Warning  string `json:"warning"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					t.Fatalf("decoding %s: %v", w.Body.String(), err)
				}
				got.cached, got.degraded, got.warning = body.Cached, body.Degraded, body.Warning
			} else {
				var env api.Error
				if err := decodeStrict(w.Body.Bytes(), &env); err != nil {
					t.Fatalf("body %s is not the bare error envelope: %v", w.Body.String(), err)
				}
				if strings.TrimSpace(env.Message) == "" {
					t.Errorf("empty error message")
				}
				got.code = env.Code
			}
			if got != row.want {
				t.Errorf("got  %+v\nwant %+v\nbody %s", got, row.want, w.Body.String())
			}
		})
	}
}
