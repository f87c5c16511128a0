package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/api"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/httpd"
)

// The serving ladder: one path, shared by every endpoint that computes an
// answer on a worker, from cache lookup to the rendered response.
//
//	fresh cache hit → flight (leader computes, waiters park) → outcome
//
// and the outcome is rendered per request, falling down the degradation
// ladder until a rung answers:
//
//	sentinel (shed / queue expiry / breaker open) → stale cached answer
//	(Warning 110) → partial answer the leader salvaged (Warning 199) →
//	bare api.Error envelope
//
// The endpoints differ only in their response type and vocabulary, which
// a ladder value carries; what they compute is a closure the handler
// passes in.

// ladder is one response type's vocabulary for the shared serving path.
type ladder[T any] struct {
	s *Server
	// noun names the answer in stale warnings ("serving last known …").
	noun string
	// op names the computation in abort and failure messages.
	op string
	// fields exposes the response's degradation fields.
	fields    func(*T) (cached, degraded *bool, warning *string)
	flights   *flightGroup[T]
	coalesced *atomic.Uint64
}

// computeFunc runs one endpoint's computation under a worker slot. On
// failure it may still return an answer salvaged from the work done,
// together with the Warning-199 reason it is served under; partial is
// empty otherwise.
type computeFunc[T any] func(ctx context.Context) (val T, partial string, err error)

// clientError marks a computation failure that is the client's doing (an
// unsatisfiable request): it answers 400 and says nothing about the
// backend's health, so the breaker treats it as neutral.
type clientError struct{ error }

func (e clientError) Unwrap() error { return e.error }

// aborted reports whether err is a deadline or cancellation cut-off
// rather than an organic failure.
func aborted(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || errors.Is(err, cpu.ErrCanceled)
}

// mark sets v's Cached flag (when cached) and, for a non-empty reason,
// its Degraded flag, prefixing reason to any Warning it already carries.
func (l *ladder[T]) mark(v *T, cached bool, reason string) {
	c, degraded, warning := l.fields(v)
	if cached {
		*c = true
	}
	if reason == "" {
		return
	}
	*degraded = true
	if *warning != "" {
		*warning = reason + "; " + *warning
	} else {
		*warning = reason
	}
}

// lookup answers a fresh cache hit for key and reports done; otherwise it
// returns the stale entry (nil when absent) the request may fall back on.
func (l *ladder[T]) lookup(ctx context.Context, w http.ResponseWriter, key string) (stale *T, done bool) {
	v, fresh, found := l.cacheGet(ctx, key)
	switch {
	case found && fresh:
		l.mark(&v, true, "")
		httpd.WriteJSON(w, http.StatusOK, v)
		return nil, true
	case found:
		return &v, false
	}
	return nil, false
}

// serve answers one request for key: from a fresh cache entry, else
// through the key's flight — leading it (and running compute) or parking
// on it, holding no worker slot — and renders the flight's outcome with
// this request's own stale fallback.
func (l *ladder[T]) serve(w http.ResponseWriter, r *http.Request, key string, compute computeFunc[T]) {
	ctx := r.Context()
	stale, done := l.lookup(ctx, w, key)
	if done {
		return
	}
	f, leader := l.flights.join(key)
	if leader {
		l.s.met.flights.Add(1)
		f.val, f.partial, f.err = l.run(ctx, key, compute)
		l.flights.finish(key, f)
	} else {
		l.coalesced.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			l.s.met.timeouts.Add(1)
			cause := "request expired awaiting coalesced " + l.op
			if !l.serveStale(w, stale, cause) {
				httpd.WriteError(w, http.StatusGatewayTimeout, api.CodeProbeTimeout, "%s: %v", cause, ctx.Err())
			}
			return
		}
	}
	l.render(w, f, stale)
}

// run is the leader's side of one flight: cache double-check, admission,
// breaker gate, the computation, breaker bookkeeping and the cache insert.
// It never writes a response — the outcome fans out through the flight.
func (l *ladder[T]) run(ctx context.Context, key string, compute computeFunc[T]) (T, string, error) {
	var zero T
	// A previous flight for this key may have completed between this
	// request's cache miss and its join; that answer wins over a
	// duplicate computation.
	if v, fresh, found := l.cacheGet(ctx, key); found && fresh {
		l.mark(&v, true, "")
		return v, "", nil
	}
	s := l.s
	if err := s.acquire(ctx); err != nil {
		return zero, "", err
	}
	defer s.lim.release()
	// The breaker gate sits after admission so a half-open trial that wins
	// the gate always runs, and therefore always reports back below.
	if !s.brk.allow() {
		return zero, "", errFlightBreaker
	}
	val, partial, err := compute(ctx)
	var ce clientError
	switch {
	case err == nil:
		s.brk.onSuccess()
		l.cacheAdd(ctx, key, val)
	case errors.As(err, &ce) || (aborted(err) && !errors.Is(err, context.DeadlineExceeded)):
		// An unsatisfiable request or a client that went away says
		// nothing about the backend; only deadline and organic failures
		// count against the breaker.
		s.brk.onNeutral()
	default:
		s.brk.onFailure()
	}
	return val, partial, err
}

// render maps one flight outcome onto one request's response. Breaker
// bookkeeping already happened once in run; here each request applies its
// own stale fallback.
func (l *ladder[T]) render(w http.ResponseWriter, f *flight[T], stale *T) {
	s, err := l.s, f.err
	var ce clientError
	switch {
	case err == nil:
		httpd.WriteJSON(w, http.StatusOK, f.val)
	case errors.Is(err, errFlightShed):
		s.met.shed.Add(1)
		if !l.serveStale(w, stale, "server saturated") {
			w.Header().Set("Retry-After", "1")
			httpd.WriteError(w, http.StatusTooManyRequests, api.CodeRateLimited, "worker queue full, retry later")
		}
	case errors.Is(err, errFlightExpired):
		s.met.timeouts.Add(1)
		if !l.serveStale(w, stale, "request expired while queued") {
			httpd.WriteError(w, http.StatusServiceUnavailable, api.CodeQueueTimeout, "%v", err)
		}
	case errors.Is(err, errFlightBreaker):
		if !l.serveStale(w, stale, "probe circuit breaker open") {
			w.Header().Set("Retry-After", "1")
			httpd.WriteError(w, http.StatusServiceUnavailable, api.CodeBreakerOpen, "probe circuit breaker open, retry later")
		}
	case errors.As(err, &ce):
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
	case aborted(err):
		s.met.timeouts.Add(1)
		switch {
		case l.serveStale(w, stale, fmt.Sprintf("%s aborted (%v)", l.op, err)):
		case f.partial != "":
			// The deadline cut the computation short but the leader
			// salvaged an answer from the completed work.
			l.servePartial(w, f.val, f.partial)
		default:
			httpd.WriteError(w, http.StatusGatewayTimeout, api.CodeProbeTimeout, "%s aborted: %v", l.op, err)
		}
	default:
		if !l.serveStale(w, stale, fmt.Sprintf("%s failed (%v)", l.op, err)) {
			httpd.WriteError(w, http.StatusInternalServerError, api.CodeProbeFailed, "%s failed: %v", l.op, err)
		}
	}
}

// warnHeader formats the RFC 7234 Warning header carried by every degraded
// response; code 110 ("response is stale") for stale answers, 199 for
// partial answers.
func warnHeader(code int, reason string) string {
	return fmt.Sprintf("%d smtservd %q", code, reason)
}

// serveStale answers 200 with the stale cached answer, marked degraded,
// and reports whether there was one to serve.
func (l *ladder[T]) serveStale(w http.ResponseWriter, stale *T, cause string) bool {
	if stale == nil {
		return false
	}
	reason := cause + ": serving last known " + l.noun
	v := *stale
	l.mark(&v, true, reason)
	l.s.met.degraded.Add(1)
	l.s.met.staleServed.Add(1)
	w.Header().Set("Warning", warnHeader(110, reason))
	httpd.WriteJSON(w, http.StatusOK, v)
	return true
}

// servePartial answers 200 with an answer salvaged from a computation the
// deadline cut short, marked degraded.
func (l *ladder[T]) servePartial(w http.ResponseWriter, v T, reason string) {
	l.mark(&v, false, reason)
	l.s.met.degraded.Add(1)
	l.s.met.partialServed.Add(1)
	w.Header().Set("Warning", warnHeader(199, reason))
	httpd.WriteJSON(w, http.StatusOK, v)
}

// cacheGet looks up an answer, routing the lookup through the fault
// injector: an injected failure is observed as a miss, an injected delay
// as a slow lookup. The LRU holds every response type under disjoint key
// prefixes.
func (l *ladder[T]) cacheGet(ctx context.Context, key string) (T, bool, bool) {
	var zero T
	if err := l.s.cfg.Faults.Inject(ctx, fault.OpCacheGet); err != nil {
		return zero, false, false
	}
	v, fresh, ok := l.s.cache.get(key, l.s.cfg.CacheTTL)
	if !ok {
		return zero, false, false
	}
	return v.(T), fresh, true
}

// cacheAdd stores an answer unless the fault injector drops the insert.
func (l *ladder[T]) cacheAdd(ctx context.Context, key string, v T) {
	if err := l.s.cfg.Faults.Inject(ctx, fault.OpCacheAdd); err != nil {
		return
	}
	l.s.cache.add(key, v)
}

// acquire takes a worker slot, mapping a limiter refusal onto the
// matching ladder sentinel. On success the caller must call
// s.lim.release().
func (s *Server) acquire(ctx context.Context) error {
	if err := s.lim.acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) {
			return errFlightShed
		}
		return fmt.Errorf("%w: %v", errFlightExpired, err)
	}
	return nil
}
