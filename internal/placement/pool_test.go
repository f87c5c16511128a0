package placement

import (
	"context"
	"fmt"
	"testing"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// mixRequest builds a Nehalem mix of the benchmark's place-mix shape over
// the given workloads: the first runs two threads, the rest one, and an
// anti-affinity rule separates the second from the third. Six workloads
// leave C(6,2) + 1 self-pair − 1 forbidden pair = 15 pairs to score.
func mixRequest(ws []api.PlaceWorkload) api.PlaceRequest {
	ws[0].Threads = 2
	return api.PlaceRequest{
		Arch:         "nehalem",
		Seed:         11,
		Workloads:    ws,
		AntiAffinity: []api.AffinityRule{{A: ws[1].Name, B: ws[2].Name}},
	}
}

// TestPlaceBorrowsOneMachine pins the pool traffic of one Place: a single
// Get of a min(DefaultMaxChunk, pairs)-chip machine, parked again
// afterwards, however many chunks the pairs take.
func TestPlaceBorrowsOneMachine(t *testing.T) {
	for _, tc := range []struct {
		workloads, pairs, chips int
	}{
		{workloads: 6, pairs: 15, chips: DefaultMaxChunk},
		{workloads: 2, pairs: 1, chips: 1},
	} {
		t.Run(fmt.Sprintf("%d_pairs", tc.pairs), func(t *testing.T) {
			ws := make([]api.PlaceWorkload, tc.workloads)
			for i := range ws {
				name := fmt.Sprintf("w%d", i)
				ws[i] = api.PlaceWorkload{Name: name, Spec: testSpec(name, float64(i%3))}
			}
			req := api.PlaceRequest{Arch: "nehalem", Seed: 11, Workloads: ws}
			if tc.workloads > 2 {
				req = mixRequest(ws)
			}
			in, err := Resolve(arch.Nehalem(), 1, req)
			if err != nil {
				t.Fatal(err)
			}
			pool := cpu.NewPool(0)
			eng := &Engine{Pool: pool, Cache: workload.NewCache(0)}
			resp, err := eng.Place(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.PairScores) != tc.pairs {
				t.Fatalf("scored %d pairs, want %d", len(resp.PairScores), tc.pairs)
			}
			st := pool.Stats()
			if st.Hits+st.Misses != 1 || st.Idle != 1 {
				t.Fatalf("pool after one Place: %+v, want one Get and one parked machine", st)
			}
			m, err := pool.Get(in.Desc, tc.chips)
			if err != nil {
				t.Fatal(err)
			}
			if pool.Stats().Hits != 1 {
				t.Fatalf("no parked %d-chip machine: %+v", tc.chips, pool.Stats())
			}
			pool.Put(m)
		})
	}
}

// BenchmarkPlace runs one seeded 6-workload Nehalem mix of library benches
// (15 pairs, the benchmark's place-mix shape) through Engine.Place with a
// shared pool and program cache, and reports scored pairs per second.
func BenchmarkPlace(b *testing.B) {
	benches := []string{"EP", "MG", "Stream", "Canneal", "Swaptions", "IS"}
	ws := make([]api.PlaceWorkload, len(benches))
	for i, bench := range benches {
		ws[i] = api.PlaceWorkload{Name: fmt.Sprintf("w%d", i), Bench: bench}
	}
	in, err := Resolve(arch.Nehalem(), 1, mixRequest(ws))
	if err != nil {
		b.Fatal(err)
	}
	eng := &Engine{Pool: cpu.NewPool(0), Cache: workload.NewCache(0)}
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Place(context.Background(), in)
		if err != nil {
			b.Fatal(err)
		}
		pairs += len(resp.PairScores)
	}
	b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
}
