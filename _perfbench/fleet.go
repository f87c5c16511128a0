package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/router"
	"repro/internal/server"
)

// Fleet shape: one router in front of two shards, each shard serving one
// request at a time, so simulation concurrency equals the two shards.
const (
	numShards      = 2
	shardWorkers   = 1
	shardThreshold = 0.21 // smtservd's default decision threshold
	routerSeed     = 1
	ringVNodes     = 128 // the router default
)

// shardName is the stable base URL of shard i. The router hashes keys onto
// shard names, so stable names make routing a function of the request
// alone, not of the loopback ports a run happens to get;
// installShardDialer maps each name onto its shard's listener.
func shardName(i int) string { return fmt.Sprintf("http://shard-%d", i) }

func shardNames() []string {
	names := make([]string, numShards)
	for i := range names {
		names[i] = shardName(i)
	}
	return names
}

// shardAddrs maps a shard's dial address ("shard-0:80") to the loopback
// address of the running fleet's listener.
var shardAddrs sync.Map

var installDialer sync.Once

// installShardDialer routes dials of shard names through shardAddrs. The
// router's forwarding clients and the benchmark's client use
// http.DefaultTransport, so it is replaced once with a clone whose dialer
// resolves the names; every other address dials as usual. Dialled
// connections close without lingering (see noLinger).
func installShardDialer() {
	installDialer.Do(func() {
		t := http.DefaultTransport.(*http.Transport).Clone()
		d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
		t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := shardAddrs.Load(addr); ok {
				addr = real.(string)
			}
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return noLinger(c), nil
		}
		http.DefaultTransport = t
	})
}

// noLinger makes closing c reset the connection instead of leaving a
// TIME_WAIT socket behind. Every fleet bring-up and stop opens and closes
// loopback connections; left in TIME_WAIT for a minute, thousands of them
// slow down every later connect on the host, so one run's set-up and
// request latencies would depend on how many runs came just before it.
// Connections are only closed once idle, so no answer is cut short.
func noLinger(c net.Conn) net.Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // best effort: a lingering close is still correct
	}
	return c
}

// noLingerListener applies noLinger to every accepted connection.
type noLingerListener struct{ net.Listener }

func (l noLingerListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return noLinger(c), nil
}

// fleetRing is the ring the router builds over the stable shard names: it
// names the shard that owns a key, for schedules and in-memory replay.
var fleetRing = func() *router.Ring {
	r, err := router.NewRing(shardNames(), ringVNodes, routerSeed)
	if err != nil {
		panic(err) // constant, valid arguments
	}
	return r
}()

// owner returns the index of the shard owning key.
func owner(key uint64) int {
	name := fleetRing.Owner(key)
	for i := 0; i < numShards; i++ {
		if shardName(i) == name {
			return i
		}
	}
	return 0
}

// fleet is an in-process advisor fleet on real loopback listeners.
type fleet struct {
	shards    []*server.Server
	shardURLs []string
	router    *router.Router
	url       string
	cli       *client.Client
	https     []*http.Server
	wg        sync.WaitGroup
}

// startFleet brings the fleet up and waits until the router answers its
// health check through the client. Caches and machine pools start empty.
func startFleet(ctx context.Context) (*fleet, error) {
	installShardDialer()
	f := &fleet{}
	for i := 0; i < numShards; i++ {
		s, err := server.New(server.Config{
			Arch: "power7", Chips: 1, Threshold: shardThreshold,
			Workers: shardWorkers, RequestTimeout: time.Minute,
		})
		if err != nil {
			return nil, f.fail(err)
		}
		url, err := f.serve(s.Handler())
		if err != nil {
			return nil, f.fail(err)
		}
		f.shards = append(f.shards, s)
		f.shardURLs = append(f.shardURLs, url)
		shardAddrs.Store(strings.TrimPrefix(shardName(i), "http://")+":80", strings.TrimPrefix(url, "http://"))
	}
	rt, err := router.New(router.Config{
		Shards: shardNames(), Seed: routerSeed, VNodes: ringVNodes,
		RequestTimeout: 2 * time.Minute, HopTimeout: time.Minute,
	})
	if err != nil {
		return nil, f.fail(err)
	}
	f.router = rt
	if f.url, err = f.serve(rt.Handler()); err != nil {
		return nil, f.fail(err)
	}
	f.cli, err = client.New(client.Config{BaseURL: f.url, MaxAttempts: 1, AttemptTimeout: 2 * time.Minute})
	if err != nil {
		return nil, f.fail(err)
	}
	if err := f.cli.Health(ctx); err != nil {
		return nil, f.fail(fmt.Errorf("fleet health: %w", err))
	}
	return f, nil
}

// serve mounts h on a fresh loopback listener and returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = hs.Serve(noLingerListener{ln}) // always http.ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), nil
}

// fail stops whatever part of the fleet started and returns err.
func (f *fleet) fail(err error) error {
	f.stop()
	return err
}

// stop drains and closes every listener and waits for the serve loops.
func (f *fleet) stop() {
	if f.router != nil {
		f.router.BeginDrain()
	}
	for _, s := range f.shards {
		s.BeginDrain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Router first, so no forward is in flight when the shards close.
	for i := len(f.https) - 1; i >= 0; i-- {
		if err := f.https[i].Shutdown(ctx); err != nil {
			_ = f.https[i].Close() // the drain budget ran out: cut the rest
		}
	}
	f.wg.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// fleetVars is the part of the fleet's /debug/vars documents the
// benchmark reads: counters summed over shards, plus the router's. Every
// pass runs on a fresh fleet, so they count that pass alone.
type fleetVars struct {
	CacheHits, CacheMisses     float64
	Probes, Coalesced          float64
	Placements, PlaceCoalesced float64
	PeakActive, Shed, Timeouts float64
	PoolHits, PoolMisses       float64
	ProgHits, ProgMisses       float64
	FwdFailures                float64
	Fallback                   float64
	ShardForwarded             []float64
}

type shardVarsDoc struct {
	CacheHits      float64 `json:"cache_hits"`
	CacheMisses    float64 `json:"cache_misses"`
	Probes         float64 `json:"probes_total"`
	Coalesced      float64 `json:"coalesced_total"`
	Placements     float64 `json:"placements_total"`
	PlaceCoalesced float64 `json:"place_coalesced_total"`
	PeakActive     float64 `json:"peak_active_workers"`
	Shed           float64 `json:"shed_total"`
	Timeouts       float64 `json:"timeout_total"`
	Pool           struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"machine_pool"`
	Progs struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"workload_cache"`
}

type routerVarsDoc struct {
	FwdFailures float64 `json:"forward_failures_total"`
	Fallback    float64 `json:"fallback_total"`
	Shards      map[string]struct {
		Forwarded float64 `json:"forwarded_total"`
	} `json:"shards"`
}

// vars reads every /debug/vars document of the fleet over HTTP.
func (f *fleet) vars(ctx context.Context) (fleetVars, error) {
	var v fleetVars
	for _, u := range f.shardURLs {
		var d shardVarsDoc
		if err := getJSON(ctx, u+api.PathVars, &d); err != nil {
			return v, err
		}
		v.CacheHits += d.CacheHits
		v.CacheMisses += d.CacheMisses
		v.Probes += d.Probes
		v.Coalesced += d.Coalesced
		v.Placements += d.Placements
		v.PlaceCoalesced += d.PlaceCoalesced
		v.PeakActive = max(v.PeakActive, d.PeakActive)
		v.Shed += d.Shed
		v.Timeouts += d.Timeouts
		v.PoolHits += d.Pool.Hits
		v.PoolMisses += d.Pool.Misses
		v.ProgHits += d.Progs.Hits
		v.ProgMisses += d.Progs.Misses
	}
	var r routerVarsDoc
	if err := getJSON(ctx, f.url+api.PathVars, &r); err != nil {
		return v, err
	}
	v.FwdFailures, v.Fallback = r.FwdFailures, r.Fallback
	for i := 0; i < numShards; i++ {
		v.ShardForwarded = append(v.ShardForwarded, r.Shards[shardName(i)].Forwarded)
	}
	return v, nil
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
