package httpd_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/httpd"
)

// fakeService records the drain and what Run handed to New.
type fakeService struct {
	drained   bool
	faults    *fault.Injector
	accessLog io.Writer
}

func (f *fakeService) Handler() http.Handler { return http.NotFoundHandler() }
func (f *fakeService) BeginDrain()           { f.drained = true }

// TestRunLifecycle pins Run's exit codes and lifecycle lines: usage and
// configuration errors exit 2 before serving, a listener failure exits 1,
// and a stop drains cleanly to exit 0.
func TestRunLifecycle(t *testing.T) {
	// Every case but the listener failure runs with its stop already
	// requested, so a daemon that gets as far as serving drains at once.
	cases := []struct {
		name     string
		stopped  bool
		edit     func(d *httpd.Daemon)
		code     int
		stderr   string
		drained  bool
		newCalls int
	}{
		{"stray arguments", true, func(d *httpd.Daemon) { d.Args = []string{"x"} }, 2, "unexpected arguments [x]", false, 0},
		{"non-positive drain timeout", true, func(d *httpd.Daemon) { d.DrainTimeout = 0 }, 2, "-drain-timeout 0s, need > 0", false, 0},
		{"missing fault schedule", true, func(d *httpd.Daemon) { d.FaultsPath = filepath.Join(t.TempDir(), "none.json") }, 2, "none.json", false, 0},
		{"service rejects its config", true, func(d *httpd.Daemon) {
			d.New = func(*fault.Injector, io.Writer) (httpd.Service, error) { return nil, errors.New("bad config") }
		}, 2, "test: bad config", false, 0},
		{"listener failure", false, func(d *httpd.Daemon) { d.Addr = "127.0.0.1:-1" }, 1, "invalid port", false, 1},
		{"stop drains cleanly", true, func(*httpd.Daemon) {}, 0, "test: signal received, draining ...\ntest: drained, bye\n", true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			svc := &fakeService{}
			calls := 0
			d := httpd.Daemon{
				Name: "test", Addr: "127.0.0.1:0", DrainTimeout: time.Second,
				Stdout: &stdout, Stderr: &stderr, Banner: "up",
				New: func(faults *fault.Injector, accessLog io.Writer) (httpd.Service, error) {
					calls++
					svc.faults, svc.accessLog = faults, accessLog
					return svc, nil
				},
			}
			tc.edit(&d)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.stopped {
				cancel()
			}
			if code := httpd.Run(ctx, d); code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
			if svc.drained != tc.drained || calls != tc.newCalls {
				t.Errorf("drained=%v New calls=%d, want %v and %d", svc.drained, calls, tc.drained, tc.newCalls)
			}
			if calls > 0 && (svc.accessLog != io.Writer(&stdout) || svc.faults != nil) {
				t.Errorf("New got access log %v and faults %v, want stdout and none", svc.accessLog, svc.faults)
			}
		})
	}
}

// TestRunWiring pins what Run hands the service: a quiet daemon gets no
// access log, and a fault schedule arrives as a live injector.
func TestRunWiring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(`{"seed": 9, "rules": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	svc := &fakeService{}
	code := httpd.Run(ctx, httpd.Daemon{
		Name: "test", Addr: "127.0.0.1:0", DrainTimeout: time.Second, FaultsPath: path, Quiet: true,
		Stdout: io.Discard, Stderr: &stderr,
		New: func(faults *fault.Injector, accessLog io.Writer) (httpd.Service, error) {
			svc.faults, svc.accessLog = faults, accessLog
			return svc, nil
		},
	})
	if code != 0 {
		t.Fatalf("exit code %d (stderr %q)", code, stderr.String())
	}
	if svc.accessLog != nil || svc.faults == nil {
		t.Fatalf("quiet daemon got access log %v, faults %v; want none and an injector", svc.accessLog, svc.faults)
	}
	if !strings.Contains(stderr.String(), "CHAOS MODE: injecting faults from "+path+" (seed 9, 0 rules)") {
		t.Fatalf("stderr %q lacks the chaos banner", stderr.String())
	}
}
