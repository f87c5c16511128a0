package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/api"
	"repro/internal/httpd"
	"repro/internal/placement"
	"repro/internal/xrand"
)

// POST /v1/place: placement-specific code only — the cache/flight key,
// decoding and resolving the request, and the co-simulation closure. The
// rest (cache, flight coalescing, admission, the probe circuit breaker and
// the degradation ladder: stale cached placement → partial placement,
// Warning 110/199) is the shared serving ladder (ladder.go).
// The cache and flight key is the hash of placement.Input.Canonical, so
// two requests that differ only in JSON field order, workload order or
// defaulted fields share one cache entry and one co-simulation flight.

// placeKey derives the cache/flight key from the canonical resolved input.
func placeKey(canonical []byte) string {
	return fmt.Sprintf("place|%016x", xrand.HashBytes(canonical))
}

// handlePlace serves POST /v1/place.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req api.PlaceRequest
	if err := httpd.DecodeJSON(r, &req); err != nil {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad place request: %v", err)
		return
	}
	d, _, err := s.reqParams(req.Arch, 0)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	in, err := placement.Resolve(d, s.cfg.Chips, req)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	canonical, err := in.Canonical()
	if err != nil {
		httpd.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "canonicalising place request: %v", err)
		return
	}
	s.places.serve(w, r, placeKey(canonical), func(ctx context.Context) (api.PlaceResponse, string, error) {
		s.met.placements.Add(1)
		resp, err := s.place(ctx, in)
		switch {
		case err == nil:
			s.met.placePairs.Add(uint64(len(resp.PairScores)))
			return resp, "", nil
		case errors.Is(err, placement.ErrInfeasible):
			// A constraint system with no solution is the client's doing,
			// not a sick engine.
			return resp, "", clientError{err}
		case aborted(err) && len(resp.PairScores) > 0:
			// The deadline cut the scoring pass short but the engine still
			// solved with the pairs it finished.
			return resp, fmt.Sprintf("partial placement: deadline expired with %d pair scores gathered", len(resp.PairScores)), err
		}
		return resp, "", err
	})
}
