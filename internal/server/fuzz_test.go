package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/smtsm"
	"repro/internal/workload"
)

// fuzzPaths are the POST endpoints FuzzHandlers drives; the fuzzer picks
// one per input.
var fuzzPaths = []string{api.PathMetric, api.PathAnalyze, api.PathPlace}

// knownCodes are the error codes the api package defines.
var knownCodes = map[string]bool{
	api.CodeBadRequest: true, api.CodeRateLimited: true, api.CodeQueueTimeout: true,
	api.CodeProbeTimeout: true, api.CodeProbeFailed: true, api.CodeBreakerOpen: true,
	api.CodeInternal: true, api.CodeNoShards: true,
}

// fuzzServer is a server whose probe and placement backends answer
// instantly, so every input runs the full decode, resolve, key and ladder
// path in microseconds.
func fuzzServer(f *testing.F) *Server {
	s, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	s.probe = func(ctx context.Context, d *arch.Desc, chips int, spec *workload.Spec, seed uint64) (controller.ProbeResult, error) {
		snap := highMetricSnapshot()
		return controller.ProbeResult{WallCycles: int64(snap.WallCycles), Snapshot: snap, Metric: smtsm.Compute(d, &snap)}, nil
	}
	s.place = func(ctx context.Context, in *placement.Input) (api.PlaceResponse, error) {
		fp, err := in.Fingerprint()
		if err != nil {
			return api.PlaceResponse{}, err
		}
		return api.PlaceResponse{Arch: in.Desc.Name, Chips: in.Chips, SMTLevel: in.Desc.MaxSMT,
			MaxPerCore: in.MaxPerCore, Fingerprint: fp}, nil
	}
	return s
}

// FuzzHandlers feeds arbitrary request bodies to the three POST endpoints.
// Properties: the handler never panics; a body that does not decode as the
// endpoint's request is a 400, never a 5xx; and every response is either
// the endpoint's success shape or a bare api.Error envelope carrying a
// code the api package knows.
func FuzzHandlers(f *testing.F) {
	metric, err := json.Marshal(MetricRequest{Snapshot: highMetricSnapshot()})
	if err != nil {
		f.Fatal(err)
	}
	valid := []string{
		string(metric),
		`{"bench":"EP","seed":3}`,
		placeBodyA,
		placeBodyB,
	}
	// The error-table bodies of TestErrorEnvelopeTable and
	// TestPlaceErrorEnvelopeTable.
	invalid := []string{
		`{"arch":`, `{"bogus":1}`, `{"arch":"vax"}`, `{"threshold":-1}`, `{`,
		`{"arch":"vax","bench":"EP"}`, `{"bench":"EP","threshold":-2}`, `{"bench":"EP","chips":-1}`,
		`{"bench":"no-such-bench"}`, `{}`,
		`{"bench":"EP","spec":{"name":"x","mix":{"int":1},"chains":1,"workingSetKB":1,"totalWork":1000,"iterLen":100}}`,
		`{"workloads":`, `{"bogus":1,"workloads":[{"name":"a","bench":"EP"}]}`,
		`{"arch":"vax","workloads":[{"name":"a","bench":"EP"}]}`,
		`{"chips":-1,"workloads":[{"name":"a","bench":"EP"}]}`,
		`{"maxPerCore":9,"workloads":[{"name":"a","bench":"EP"}]}`,
		`{"workloads":[{"bench":"EP"}]}`,
		`{"workloads":[{"name":"a","bench":"EP"},{"name":"a","bench":"CG"}]}`,
		`{"workloads":[{"name":"a","bench":"EP","spec":` + placeSpecCPU + `}]}`,
		`{"workloads":[{"name":"a","bench":"no-such-bench"}]}`,
		`{"workloads":[{"name":"a","bench":"EP","threads":1000}]}`,
		`{"workloads":[{"name":"a","bench":"EP"}],"antiAffinity":[{"a":"a","b":"ghost"}]}`,
		`{"workloads":[{"name":"solo","bench":"EP","threads":9}],"antiAffinity":[{"a":"solo","b":"solo"}]}`,
	}
	for i := range fuzzPaths {
		for _, body := range append(valid, invalid...) {
			f.Add(uint8(i), []byte(body))
		}
	}
	s := fuzzServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzPaths[int(endpoint)%len(fuzzPaths)]
		w := postRaw(t, h, path, string(body))
		var req, resp any
		switch path {
		case api.PathMetric:
			req, resp = new(api.MetricRequest), new(api.Recommendation)
		case api.PathAnalyze:
			req, resp = new(api.AnalyzeRequest), new(api.Recommendation)
		default:
			req, resp = new(api.PlaceRequest), new(api.PlaceResponse)
		}
		malformed := decodeStrict(body, req) != nil
		if malformed && w.Code != http.StatusBadRequest {
			t.Fatalf("%s: malformed body %q answered %d: %s", path, body, w.Code, w.Body.String())
		}
		if w.Code >= 500 {
			t.Fatalf("%s: body %q answered %d with instant backends: %s", path, body, w.Code, w.Body.String())
		}
		if w.Code == http.StatusOK {
			if err := decodeStrict(w.Body.Bytes(), resp); err != nil {
				t.Fatalf("%s: 200 body %s is not the success shape: %v", path, w.Body.String(), err)
			}
			fp := ""
			switch r := resp.(type) {
			case *api.Recommendation:
				fp = r.Fingerprint
			case *api.PlaceResponse:
				fp = r.Fingerprint
			}
			if fp == "" {
				t.Fatalf("%s: 200 body %s has no fingerprint", path, w.Body.String())
			}
			return
		}
		var env api.Error
		if err := decodeStrict(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: %d body %s is not the bare error envelope: %v", path, w.Code, w.Body.String(), err)
		}
		if !knownCodes[env.Code] || strings.TrimSpace(env.Message) == "" {
			t.Fatalf("%s: %d envelope %+v: unknown code or empty message", path, w.Code, env)
		}
	})
}
