// Package client is the public Go client for the smtservd advisor
// service. It speaks the versioned wire contract in repro/api and layers
// the retry discipline the service's failure model expects on top of
// net/http:
//
//   - every call takes a context and stops promptly when it is cancelled;
//   - each attempt runs under its own per-attempt deadline, so one hung
//     connection cannot eat the caller's whole budget;
//   - retryable failures (429, 503, 504, transport errors — see
//     api.Error.Retryable) back off exponentially with deterministic
//     seeded jitter, honouring Retry-After when the server sends one;
//   - a wall-clock retry budget bounds the total time spent retrying,
//     independent of the attempt count.
//
// Jitter comes from the repository's seeded generator rather than global
// math/rand, so a client constructed with a fixed Seed produces a
// reproducible retry schedule — the property the chaos suite and the
// backoff determinism tests pin.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/xrand"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultMaxAttempts    = 4
	DefaultAttemptTimeout = 10 * time.Second
	DefaultRetryBudget    = 30 * time.Second
	DefaultBaseDelay      = 50 * time.Millisecond
	DefaultMaxDelay       = 2 * time.Second
)

// Config parameterises a Client. The zero value of every field except
// BaseURL is usable: New fills in the documented defaults.
type Config struct {
	// BaseURL locates the advisor, e.g. "http://127.0.0.1:8080".
	// Required; a trailing slash is tolerated.
	BaseURL string

	// HTTPClient overrides the underlying transport. Defaults to a
	// dedicated http.Client with no client-level timeout — deadlines are
	// governed per attempt by AttemptTimeout and the caller's context.
	HTTPClient *http.Client

	// MaxAttempts caps the total tries per call (first attempt included).
	// 0 means DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int

	// AttemptTimeout bounds each individual attempt. 0 means
	// DefaultAttemptTimeout; negative disables the per-attempt deadline.
	AttemptTimeout time.Duration

	// RetryBudget bounds the total wall-clock time a call may spend
	// across attempts and backoff sleeps. Once the budget is spent no
	// further retry is scheduled. 0 means DefaultRetryBudget; negative
	// disables the budget.
	RetryBudget time.Duration

	// BaseDelay and MaxDelay shape the exponential backoff: retry n
	// sleeps roughly BaseDelay<<n, jittered to [50%, 100%] of that,
	// capped at MaxDelay. Zero means the package defaults.
	BaseDelay time.Duration
	MaxDelay  time.Duration

	// Seed drives the backoff jitter. Two clients built with the same
	// Seed issue identical retry schedules for identical outcomes.
	Seed uint64
}

// Client is a reusable, goroutine-safe advisor client.
type Client struct {
	cfg  Config
	base string
	hc   *http.Client

	mu  sync.Mutex
	rng *xrand.Rand

	// Test seams; production values are set by New.
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time
}

// New validates cfg, applies defaults and returns a ready Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	if cfg.MaxAttempts < 0 {
		return nil, fmt.Errorf("client: MaxAttempts %d: need >= 0", cfg.MaxAttempts)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = DefaultBaseDelay
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		cfg:   cfg,
		base:  strings.TrimRight(cfg.BaseURL, "/"),
		hc:    hc,
		rng:   xrand.New(cfg.Seed),
		sleep: sleepCtx,
		now:   time.Now,
	}, nil
}

// Metric computes the SMT-selection metric for a pre-recorded counter
// snapshot via POST /v1/metric.
func (c *Client) Metric(ctx context.Context, req api.MetricRequest) (api.Recommendation, error) {
	return post[api.Recommendation](ctx, c, api.PathMetric, req)
}

// Analyze runs (or answers from cache) a full probe via POST /v1/analyze.
// A Recommendation with Degraded set is a valid answer computed from
// stale or partial data — inspect Warning for the cause.
func (c *Client) Analyze(ctx context.Context, req api.AnalyzeRequest) (api.Recommendation, error) {
	return post[api.Recommendation](ctx, c, api.PathAnalyze, req)
}

// Place solves a thread-to-core placement via POST /v1/place, with the
// same retry and degradation semantics as Analyze: a PlaceResponse with
// Degraded set is a valid answer computed from stale or partial pair
// scores — inspect Warning for the cause.
func (c *Client) Place(ctx context.Context, req api.PlaceRequest) (api.PlaceResponse, error) {
	return post[api.PlaceResponse](ctx, c, api.PathPlace, req)
}

// Health probes GET /healthz once, with no retries: health checks are
// themselves the mechanism callers poll, so masking flakiness here would
// defeat their purpose. A non-2xx status or transport error is returned
// as is.
func (c *Client) Health(ctx context.Context) error {
	actx, cancel := c.attemptContext(ctx)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+api.PathHealthz, nil)
	if err != nil {
		return fmt.Errorf("client: building health request: %w", err)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: health: %w", err)
	}
	defer resp.Body.Close()
	//lint:ignore errlint draining the body is best-effort connection hygiene
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &api.Error{Message: "health check failed", Code: api.CodeInternal, Status: resp.StatusCode}
	}
	return nil
}

// post runs the retry loop for one logical call. It is generic over the
// response type (Recommendation, PlaceResponse, ...) so every endpoint
// shares one retry/backoff/budget implementation; it is a package-level
// function only because Go methods cannot take type parameters.
func post[T any](ctx context.Context, c *Client, path string, payload any) (T, error) {
	var zero T
	body, err := json.Marshal(payload)
	if err != nil {
		return zero, fmt.Errorf("client: encoding request: %w", err)
	}
	start := c.now()
	var lastErr error
	for a := 0; a < c.cfg.MaxAttempts; a++ {
		rec, retryAfter, err := attempt[T](ctx, c, path, body)
		if err == nil {
			return rec, nil
		}
		lastErr = err
		if ctx.Err() != nil || !Retryable(err) || a == c.cfg.MaxAttempts-1 {
			break
		}
		delay := c.backoff(a)
		if retryAfter > delay {
			delay = retryAfter
		}
		if c.cfg.RetryBudget > 0 && c.now().Add(delay).Sub(start) > c.cfg.RetryBudget {
			lastErr = fmt.Errorf("client: retry budget %v exhausted after %d attempts: %w",
				c.cfg.RetryBudget, a+1, err)
			break
		}
		if serr := c.sleep(ctx, delay); serr != nil {
			break // parent context cancelled mid-backoff; report the last attempt's error
		}
	}
	return zero, lastErr
}

// attempt performs one HTTP exchange under the per-attempt deadline and
// returns the decoded response, or the server's Retry-After hint
// alongside the error.
func attempt[T any](ctx context.Context, c *Client, path string, body []byte) (T, time.Duration, error) {
	var zero T
	actx, cancel := c.attemptContext(ctx)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return zero, 0, fmt.Errorf("client: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		// Surface the caller's cancellation rather than the wrapped URL
		// error so errors.Is(err, context.Canceled) works naturally. A
		// per-attempt timeout, by contrast, is deliberately flattened with
		// %v: it must not satisfy errors.Is(err, DeadlineExceeded), because
		// exceeding one attempt's budget is exactly what retries are for.
		if ctx.Err() != nil {
			return zero, 0, ctx.Err()
		}
		if actx.Err() != nil {
			return zero, 0, fmt.Errorf("client: attempt timed out after %v: %v", c.cfg.AttemptTimeout, err)
		}
		return zero, 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		if ctx.Err() != nil {
			return zero, 0, ctx.Err()
		}
		if actx.Err() != nil {
			return zero, 0, fmt.Errorf("client: attempt timed out after %v: %v", c.cfg.AttemptTimeout, err)
		}
		return zero, 0, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		var rec T
		if err := json.Unmarshal(raw, &rec); err != nil {
			return zero, 0, fmt.Errorf("client: decoding response: %w", err)
		}
		return rec, 0, nil
	}
	return zero, c.parseRetryAfter(resp.Header.Get("Retry-After")), decodeError(resp.StatusCode, raw)
}

// attemptContext derives the per-attempt context.
func (c *Client) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.AttemptTimeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, c.cfg.AttemptTimeout)
}

// backoff returns the jittered exponential delay before retry n (0-based:
// the delay after the first failed attempt is backoff(0)).
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BaseDelay
	for i := 0; i < n && d < c.cfg.MaxDelay; i++ {
		d *= 2
	}
	if d > c.cfg.MaxDelay {
		d = c.cfg.MaxDelay
	}
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// decodeError maps a non-2xx response to an *api.Error, synthesising an
// envelope when the body is not one (a proxy error page, say).
func decodeError(status int, raw []byte) error {
	var e api.Error
	if err := json.Unmarshal(raw, &e); err == nil && e.Message != "" {
		e.Status = status
		return &e
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &api.Error{Message: msg, Status: status}
}

// Retryable reports whether an attempt error is worth retrying: an
// api.Error that says so, or any transport-level failure that is not the
// caller's own cancellation. A failure the server would reproduce verbatim
// — bad request, deterministic probe failure — is not retryable. The
// router applies the same rule to decide whether a failed forward may
// fall back to the next replica.
func Retryable(err error) bool {
	var e *api.Error
	if errors.As(err, &e) {
		return e.Retryable()
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("120") or HTTP-date ("Fri, 31 Dec 1999 23:59:59 GMT").
// Dates are resolved against the client clock, so a skewed or past date
// degrades to 0 (retry immediately) rather than a bogus long sleep;
// malformed values also parse to 0.
func (c *Client) parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(c.now()); d > 0 {
			return d
		}
	}
	return 0
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
