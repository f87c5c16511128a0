// Package httpd is the HTTP service shell smtservd and smtrouter share: the
// request middleware (timeout, body limit, observation, JSON access line),
// the drain flag, the JSON and error-envelope helpers, the /debug/vars
// rendering, and Run, the daemon lifecycle. Each daemon keeps only its
// routes, its /healthz body, its counters and its vars document.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/api"
	"repro/internal/fault"
	"repro/internal/report"
)

// maxBodyBytes bounds request bodies; counter snapshots, workload specs and
// placement mixes are tiny, so anything near this limit is abuse.
const maxBodyBytes = 1 << 20

// Shell wraps a daemon's routes with the shared request middleware. It
// times every request into one latency histogram and carries the drain
// flag; the daemon counts statuses through the observe callback, since its
// counters live in its own metrics.
type Shell struct {
	timeout  time.Duration
	logOut   io.Writer
	now      func() time.Time
	observe  func(status int)
	start    time.Time
	latency  *report.LatencyHistogram
	draining atomic.Bool
	logMu    sync.Mutex
}

// NewShell builds a shell: timeout is the per-request budget (> 0),
// accessLog receives one JSON line per request (nil = none), now is the
// clock read at request time, and observe is told every finished
// request's status.
func NewShell(timeout time.Duration, accessLog io.Writer, now func() time.Time, observe func(status int)) *Shell {
	return &Shell{timeout: timeout, logOut: accessLog, now: now, observe: observe,
		start: time.Now(), latency: report.NewLatencyHistogram()}
}

// Wrap returns the full request pipeline: h behind the timeout, the body
// limit, the observation callback and the access log.
func (sh *Shell) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := sh.now()
		ctx, cancel := context.WithTimeout(r.Context(), sh.timeout)
		defer cancel()
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h.ServeHTTP(rec, r)
		elapsed := sh.now().Sub(start)
		sh.latency.Observe(elapsed)
		sh.observe(rec.status)
		sh.logRequest(r, rec.status, rec.bytes, elapsed)
	})
}

// BeginDrain flips the shell into draining mode; the daemon's /healthz
// reads it to answer 503 so load balancers stop routing here.
func (sh *Shell) BeginDrain() { sh.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (sh *Shell) Draining() bool { return sh.draining.Load() }

// statusRecorder captures the response status and size for logs/metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// logRequest emits one structured JSON access line per request.
func (sh *Shell) logRequest(r *http.Request, status int, bytes int64, elapsed time.Duration) {
	if sh.logOut == nil {
		return
	}
	line, err := json.Marshal(map[string]any{
		"time":   sh.now().UTC().Format(time.RFC3339Nano),
		"method": r.Method,
		"path":   r.URL.Path,
		"status": status,
		"bytes":  bytes,
		"dur_ms": float64(elapsed.Microseconds()) / 1000,
		"remote": r.RemoteAddr,
	})
	if err != nil {
		return
	}
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	//lint:ignore errlint access logging is best-effort by design: a full log disk must not fail requests
	_, _ = sh.logOut.Write(append(line, '\n'))
}

// DecodeJSON strictly decodes a request body into v: unknown fields are
// errors, so misspelled options fail loudly at the edge.
func DecodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Marshal of the daemons' own response types cannot fail; if it
		// ever does, a 500 with no body beats a silently truncated 200.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	//lint:ignore errlint the response write is best-effort: the client may have hung up, and the status is already committed
	_, _ = w.Write(append(body, '\n'))
}

// WriteError emits the api.Error envelope every non-2xx response carries:
// a human-readable message under "error" and the machine-readable code
// clients branch on.
func WriteError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	WriteJSON(w, status, api.Error{Message: fmt.Sprintf(format, args...), Code: code})
}

// Vars returns the /debug/vars handler: the daemon's doc, sampled per
// request, plus the shell's uptime, drain flag and request latency,
// rendered as one indented JSON document.
func (sh *Shell) Vars(doc func() map[string]any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		vars := doc()
		vars["uptime_seconds"] = time.Since(sh.start).Seconds()
		vars["draining"] = sh.Draining()
		vars["latency_seconds"] = sh.latency.Snapshot()
		vars["latency_summary"] = sh.latency.Summary()
		body, err := json.MarshalIndent(vars, "", "  ")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		//lint:ignore errlint the response write is best-effort: the client may have hung up
		_, _ = w.Write(append(body, '\n'))
	}
}

// Service is what Run serves: a request pipeline and its drain switch.
type Service interface {
	Handler() http.Handler
	BeginDrain()
}

// Daemon is one daemon process: its command line and how to build it.
type Daemon struct {
	Name           string   // prefixes every lifecycle line
	Args           []string // left after flag parsing; must be empty
	Addr           string
	DrainTimeout   time.Duration // bounds the wait for in-flight requests
	FaultsPath     string        // optional fault schedule (internal/fault)
	Quiet          bool          // no access log on Stdout
	Stdout, Stderr io.Writer     // access log; lifecycle lines
	Banner         string        // logged once the listener starts
	// New builds the service from the fault injector (nil without a
	// schedule) and the access-log writer (nil when quiet).
	New func(faults *fault.Injector, accessLog io.Writer) (Service, error)
}

// Run is a daemon's life after flag parsing: validate, load the fault
// schedule, build the service, serve until ctx is done or SIGINT/SIGTERM
// arrives, then drain: /healthz flips to 503 and in-flight requests finish
// within the drain timeout. It returns the exit code: 2 for a usage or
// configuration error, 1 when serving or draining fails, 0 after a clean
// drain.
func Run(ctx context.Context, d Daemon) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(d.Stderr, d.Name+": "+format+"\n", args...)
	}
	if len(d.Args) > 0 {
		logf("unexpected arguments %v", d.Args)
		return 2
	}
	if d.DrainTimeout <= 0 {
		logf("-drain-timeout %v, need > 0", d.DrainTimeout)
		return 2
	}
	var faults *fault.Injector
	if d.FaultsPath != "" {
		sched, err := fault.LoadSchedule(d.FaultsPath)
		if err != nil {
			logf("%v", err)
			return 2
		}
		faults = fault.NewInjector(sched)
		logf("CHAOS MODE: injecting faults from %s (seed %d, %d rules)", d.FaultsPath, sched.Seed, len(sched.Rules))
	}
	logOut := d.Stdout
	if d.Quiet {
		logOut = nil
	}
	svc, err := d.New(faults, logOut)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if err := serve(ctx, d, svc, logf); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

func serve(ctx context.Context, d Daemon, svc Service, logf func(string, ...any)) error {
	httpSrv := &http.Server{
		Addr:              d.Addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	stopCtx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logf("%s", d.Banner)

	select {
	case err := <-serveErr:
		return err
	case <-stopCtx.Done():
	}

	logf("signal received, draining ...")
	svc.BeginDrain()
	// The drain gets its own budget: the stop that ended serving must not
	// also cut the drain short.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), d.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logf("drained, bye")
	return nil
}
