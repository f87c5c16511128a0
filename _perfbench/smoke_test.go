package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/cpu"
	"repro/internal/placement"
	"repro/internal/workload"
)

// benchmarkFile is the part of ../BENCHMARK.json the report must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the report %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), report has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the report %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), report has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadSmoke runs the smallest pass of every workload (one request,
// epoch or sweep) and requires every answer check to pass.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates for about 15 s")
	}
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			if raceEnabled && w != "metric-fleet" {
				t.Skip("simulates for minutes under the race detector")
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var f *fleet
			if w != "campaign" {
				var err error
				if f, err = startFleet(ctx); err != nil {
					t.Fatal(err)
				}
				defer f.stop()
			}
			res, err := runLive(ctx, w, 3, 200*time.Millisecond, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Ops == 0 || res.Failed != 0 {
				t.Fatalf("attempted %d, answered %d, failed %d: %v", res.Attempted, res.Ops, res.Failed, res.Failures)
			}
			if len(res.Series[primarySeries[w]]) == 0 {
				t.Fatalf("no %s latencies recorded", primarySeries[w])
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs a short traced run end to end and
// requires a correct result carrying every per-layer metric.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates for about 10 s (minutes under the race detector)")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "metric-fleet", "--seed", "4", "--seconds", "1", "--trace", "1", "--out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("metric %s: %+v, want unit %s", m.name, got, m.unit)
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

// TestBatchReplayRejectsEngineMismatch replays one placement's pair
// co-runs against the engine's scores, then against scores with one wall
// cycle count changed, which must fail the replay.
func TestBatchReplayRejectsEngineMismatch(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("co-simulates a placement's pairs twice")
	}
	ctx := context.Background()
	rp := &replayer{}
	req := placeRequest(5, 0)
	pin, err := placement.Resolve(archByName(req.Arch), 1, req)
	if err != nil {
		t.Fatal(err)
	}
	eng := &placement.Engine{Pool: cpu.NewPool(2), Cache: workload.NewCache(0)}
	resp, err := eng.Place(ctx, pin)
	if err != nil {
		t.Fatal(err)
	}
	st, pool, progs := newSimSteps(), cpu.NewPool(2), workload.NewCache(0)
	if _, _, err := rp.batch(ctx, st, pool, progs, 1, 0, pin, resp.PairScores); err != nil {
		t.Fatalf("replay of the engine's own pairs: %v", err)
	}
	bad := append([]api.PairScore(nil), resp.PairScores...)
	bad[len(bad)-1].WallCycles++
	if _, _, err := rp.batch(ctx, st, pool, progs, 1, 0, pin, bad); err == nil {
		t.Fatal("replay accepted a pair whose wall cycles differ from the engine's")
	}
}
