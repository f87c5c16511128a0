// Package router is the fleet frontend of the SMT advisor: a stateless
// HTTP tier that consistent-hashes request fingerprints over N smtservd
// backend shards, forwards over the versioned api wire types via the
// retrying client, and falls back to replica shards — in ring order — when
// the owner is down.
//
// Routing is deterministic: the ring is a pure function of (shard set,
// vnodes, seed), and every shard computes recommendations from the same
// seeded simulator, so the same request yields a byte-identical
// Recommendation through one shard or through the router over N — the
// 1-shard ≡ N-shard contract pinned by the golden test in this package.
//
// The request shell around the routes — timeout, body limit, access log,
// drain flag and /debug/vars rendering — is internal/httpd, shared with
// smtservd; this package keeps its routes, its /healthz body (which lists
// shard health) and its counters.
package router

import (
	"fmt"
	"sort"

	"repro/internal/xrand"
)

// Ring is an immutable consistent-hash ring: each shard owns VNodes
// pseudo-random points on a 64-bit circle, and a key is routed to the
// shard owning the first point at or after the key's hash. Immutability is
// deliberate — rebalancing on shard loss is handled by walking the ring to
// the next distinct shard (Order), not by rebuilding the ring, so the
// key→shard mapping never depends on failure history.
type Ring struct {
	shards []string
	points []ringPoint
}

// ringPoint is one virtual node: a position on the circle and the index of
// the shard that owns it.
type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing places every shard's virtual nodes on the circle. The layout is
// a pure function of (shards, vnodes, seed): shard names are deduplicated
// and sorted first, so the caller's ordering is irrelevant, and two rings
// built from the same inputs route every key identically — across
// processes, restarts and architectures.
func NewRing(shards []string, vnodes int, seed uint64) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one shard")
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("router: vnodes %d, need >= 1", vnodes)
	}
	uniq := make([]string, 0, len(shards))
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("router: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("router: duplicate shard %q", s)
		}
		seen[s] = true
		uniq = append(uniq, s)
	}
	sort.Strings(uniq)

	r := &Ring{
		shards: uniq,
		points: make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for i, name := range uniq {
		// Each virtual node's position derives from (seed, shard name,
		// vnode index) and nothing else, so adding or removing a shard
		// leaves every other shard's points exactly where they were —
		// the minimal-movement property the ring test pins.
		base := xrand.Mix64(seed ^ xrand.HashString(name))
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  xrand.Mix64(base ^ xrand.Mix64(uint64(v))),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on shard index so the ring order is total even in the
		// astronomically unlikely event of a 64-bit hash collision.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// Shards returns the ring's shard names in their canonical (sorted) order.
func (r *Ring) Shards() []string {
	out := make([]string, len(r.shards))
	copy(out, r.shards)
	return out
}

// Owner returns the shard owning key: the shard of the first virtual node
// at or clockwise after the key's position.
func (r *Ring) Owner(key uint64) string {
	return r.shards[r.points[r.search(key)].shard]
}

// Order returns up to n distinct shards in the key's ring order: the owner
// first, then each successive distinct shard found walking clockwise. This
// is the replica-fallback preference order — every router derives the same
// order for the same key, so a shard loss rebalances identically
// everywhere without coordination.
func (r *Ring) Order(key uint64, n int) []string {
	if n > len(r.shards) {
		n = len(r.shards)
	}
	if n < 1 {
		n = 1
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}

// search finds the index of the first point with hash >= key, wrapping to
// point 0 past the end of the circle.
func (r *Ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}
