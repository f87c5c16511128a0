package httpd_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/router"
	"repro/internal/server"
)

// daemon is one HTTP daemon under the shared request shell.
type daemon struct {
	name       string
	handler    http.Handler
	beginDrain func()
}

// daemons builds smtservd's and smtrouter's request pipelines, both
// logging to log. The router's shard is never dialled: every case below
// is answered at the router's own edge.
func daemons(t *testing.T, log *bytes.Buffer) []daemon {
	t.Helper()
	srv, err := server.New(server.Config{Threshold: 0.21, AccessLog: log})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{Shards: []string{"http://127.0.0.1:1"}, Seed: 1, AccessLog: log})
	if err != nil {
		t.Fatal(err)
	}
	return []daemon{
		{"smtservd", srv.Handler(), srv.BeginDrain},
		{"smtrouter", rt.Handler(), rt.BeginDrain},
	}
}

func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// badRequest asserts a 400 carrying the api.Error envelope and returns it.
func badRequest(t *testing.T, w *httptest.ResponseRecorder) api.Error {
	t.Helper()
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %q)", w.Code, w.Body.String())
	}
	var e api.Error
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("error envelope: %v", err)
	}
	if e.Code != api.CodeBadRequest || e.Message == "" {
		t.Fatalf("envelope %+v, want code %q and a message", e, api.CodeBadRequest)
	}
	return e
}

// TestShellContract pins the request shell both daemons share: the body
// limit, the strict decode, the access-line schema, drain and the common
// /debug/vars entries.
func TestShellContract(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T, d daemon, log *bytes.Buffer)
	}{
		{"body over 1 MiB is a 400 envelope", func(t *testing.T, d daemon, _ *bytes.Buffer) {
			body := `{"snapshot":{"smtLevel":` + strings.Repeat(" ", 1<<20) + `4}}`
			if e := badRequest(t, do(d.handler, "POST", "/v1/metric", body)); !strings.Contains(e.Message, "too large") {
				t.Fatalf("message %q does not name the body limit", e.Message)
			}
		}},
		{"unknown JSON field is a 400 envelope", func(t *testing.T, d daemon, _ *bytes.Buffer) {
			if e := badRequest(t, do(d.handler, "POST", "/v1/metric", `{"snapshot":{},"bogus":1}`)); !strings.Contains(e.Message, "bogus") {
				t.Fatalf("message %q does not name the unknown field", e.Message)
			}
		}},
		{"access line has exactly seven keys", func(t *testing.T, d daemon, log *bytes.Buffer) {
			do(d.handler, "GET", "/healthz", "")
			var line map[string]any
			if err := json.Unmarshal(log.Bytes(), &line); err != nil {
				t.Fatalf("access line %q: %v", log.String(), err)
			}
			var keys []string
			for k := range line {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got, want := strings.Join(keys, ","), "bytes,dur_ms,method,path,remote,status,time"; got != want {
				t.Fatalf("access-line keys %s, want %s", got, want)
			}
			if line["path"] != "/healthz" || line["method"] != "GET" || line["status"] != float64(200) {
				t.Fatalf("access line %v", line)
			}
		}},
		{"healthz answers 503 after BeginDrain", func(t *testing.T, d daemon, _ *bytes.Buffer) {
			if w := do(d.handler, "GET", "/healthz", ""); w.Code != http.StatusOK {
				t.Fatalf("healthz %d before drain, want 200", w.Code)
			}
			d.beginDrain()
			if w := do(d.handler, "GET", "/healthz", ""); w.Code != http.StatusServiceUnavailable {
				t.Fatalf("healthz %d after BeginDrain, want 503", w.Code)
			}
		}},
		{"request counters and latency on /debug/vars", func(t *testing.T, d daemon, _ *bytes.Buffer) {
			do(d.handler, "GET", "/healthz", "")
			do(d.handler, "POST", "/v1/metric", `{`)
			w := do(d.handler, "GET", "/debug/vars", "")
			var vars map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
				t.Fatalf("vars %q: %v", w.Body.String(), err)
			}
			want := map[string]float64{"requests_total": 2, "responses_2xx": 1, "responses_4xx": 1, "responses_5xx": 0}
			for k, n := range want {
				if vars[k] != n {
					t.Errorf("%s = %v, want %v", k, vars[k], n)
				}
			}
			for _, k := range []string{"latency_seconds", "latency_summary", "uptime_seconds", "draining"} {
				if _, ok := vars[k]; !ok {
					t.Errorf("vars lack %q", k)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			for _, d := range daemons(t, &log) {
				t.Run(d.name, func(t *testing.T) {
					log.Reset()
					tc.check(t, d, &log)
				})
			}
		})
	}
}
