package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/api"
)

func metricStream(seed uint64, client, n int) []string {
	g := newMetricGen(seed, client)
	out := make([]string, n)
	for i := range out {
		req := g.next()
		b, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		out[i] = string(b)
	}
	return out
}

func analyzeSchedule(seed uint64, epochs int) []round {
	var all []round
	var answered []akey
	for e := 0; e < epochs; e++ {
		rounds := analyzeEpoch(seed, e, answered)
		for _, rd := range rounds {
			if rd.Kind != repeat {
				answered = append(answered, rd.Keys[0])
				if rd.Keys[1] != rd.Keys[0] {
					answered = append(answered, rd.Keys[1])
				}
			}
		}
		all = append(all, rounds...)
	}
	return all
}

func TestSchedulesAreDeterministic(t *testing.T) {
	if !reflect.DeepEqual(metricStream(5, 0, 200), metricStream(5, 0, 200)) {
		t.Error("metric stream differs for one seed")
	}
	if !reflect.DeepEqual(analyzeSchedule(5, 3), analyzeSchedule(5, 3)) {
		t.Error("analyze schedule differs for one seed")
	}
	if !reflect.DeepEqual(placeRequest(5, 3), placeRequest(5, 3)) {
		t.Error("place request differs for one seed")
	}
	a, b := campaignSpecs(5), campaignSpecs(5)
	if a[0].Matrix.Seed != b[0].Matrix.Seed || !reflect.DeepEqual(a[1].Benches, b[1].Benches) {
		t.Error("campaign differs for one seed")
	}
}

func TestSeedsChangeKeys(t *testing.T) {
	m1, m2 := metricStream(5, 0, 50), metricStream(6, 0, 50)
	for i := range m1 {
		if m1[i] == m2[i] {
			t.Fatalf("metric request %d identical across seeds", i)
		}
	}
	keys := func(seed uint64) map[akey]bool {
		out := map[akey]bool{}
		for _, rd := range analyzeSchedule(seed, 2) {
			out[rd.Keys[0]], out[rd.Keys[1]] = true, true
		}
		return out
	}
	k5 := keys(5)
	for k := range keys(6) {
		if k5[k] {
			t.Fatalf("analyze key %+v shared by seeds 5 and 6", k)
		}
	}
	if placeRequest(5, 0).Seed == placeRequest(6, 0).Seed {
		t.Error("place seed shared by seeds 5 and 6")
	}
	if campaignSpecs(5)[0].Matrix.Seed == campaignSpecs(6)[0].Matrix.Seed {
		t.Error("campaign matrix seed shared by seeds 5 and 6")
	}
}

func TestAnalyzeEpochShape(t *testing.T) {
	rounds := analyzeSchedule(9, 4)
	perEpoch := len(rounds) / 4
	for e := 0; e < 4; e++ {
		benches := map[string]int{}
		kinds := map[roundKind]int{}
		fresh := map[akey]bool{}
		for i, rd := range rounds[e*perEpoch : (e+1)*perEpoch] {
			kinds[rd.Kind]++
			switch rd.Kind {
			case burst:
				if rd.Keys[0] != rd.Keys[1] {
					t.Errorf("epoch %d: burst with two keys", e)
				}
			case spread:
				if rd.Keys[0] == rd.Keys[1] {
					t.Errorf("epoch %d: spread with one key", e)
				}
			case repeat:
				if e == 0 && i == 0 {
					t.Errorf("the schedule opens with a repeat")
				}
				continue
			}
			for _, k := range rd.Keys {
				if !fresh[k] {
					fresh[k] = true
					benches[k.Bench]++
				}
			}
		}
		if kinds[burst] != 2 || kinds[spread] != 2 || kinds[repeat] != 2 {
			t.Errorf("epoch %d: round kinds %v", e, kinds)
		}
		for _, b := range analyzeBenches {
			if benches[b] != 1 {
				t.Errorf("epoch %d: bench %s probed %d times, want 1", e, b, benches[b])
			}
		}
	}
}

func TestPlaceRequestShape(t *testing.T) {
	for k := 0; k < 50; k++ {
		req := placeRequest(3, k)
		threads, doubles := 0, 0
		for _, w := range req.Workloads {
			threads += max(w.Threads, 1)
			if w.Threads == 2 {
				doubles++
			}
		}
		d := archByName(req.Arch)
		if threads > d.CoresPerChip*d.MaxSMT || doubles != placeDoubles || len(req.AntiAffinity) != 1 {
			t.Fatalf("request %d: %d threads, %d doubles, %d rules", k, threads, doubles, len(req.AntiAffinity))
		}
		r := req.AntiAffinity[0]
		if r.A == r.B || r.A == req.Workloads[0].Name || r.B == req.Workloads[0].Name {
			t.Fatalf("request %d: anti-affinity %+v must join two single-threaded workloads", k, r)
		}
	}
}

func TestSpreadRoundsQueueOneAndParallelOne(t *testing.T) {
	rounds := analyzeSchedule(11, 5)
	for e := 0; e < 5; e++ {
		same, diff := 0, 0
		for _, rd := range rounds[e*6 : (e+1)*6] {
			if rd.Kind != spread {
				continue
			}
			if owner(rd.Keys[0].route()) == owner(rd.Keys[1].route()) {
				same++
			} else {
				diff++
			}
		}
		if same != 1 || diff != 1 {
			t.Errorf("epoch %d: %d same-shard and %d cross-shard spreads, want 1 and 1", e, same, diff)
		}
	}
}

// The router keys an analyze request by the hash of its re-marshalled
// body; route must hash the same bytes.
func TestRouteMatchesRouterCanonicalForm(t *testing.T) {
	for _, b := range analyzeBenches {
		req := akey{Bench: b, Seed: 77}.request()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back api.AnalyzeRequest
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatal(err)
		}
		canonical, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(canonical) != string(body) {
			t.Errorf("%s: re-marshalled request differs from the sent body", b)
		}
	}
}
