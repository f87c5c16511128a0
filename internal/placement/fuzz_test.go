package placement

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/xrand"
)

// shuffle permutes n elements in place with a seeded Fisher-Yates pass.
func shuffle(rng *xrand.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, rng.Intn(i+1))
	}
}

// resolveReq resolves req on the architecture it names (power7 when it
// names none); nil when Resolve rejects it.
func resolveReq(req api.PlaceRequest) *Input {
	name := req.Arch
	if name == "" {
		name = "power7"
	}
	d, err := arch.ByName(name)
	if err != nil {
		return nil
	}
	in, err := Resolve(d, 1, req)
	if err != nil {
		return nil
	}
	return in
}

func canonicalT(t *testing.T, in *Input) []byte {
	t.Helper()
	b, err := in.Canonical()
	if err != nil {
		t.Fatalf("Canonical of a resolved input: %v", err)
	}
	return b
}

// FuzzPlaceCanonical fuzzes the canonical form behind the server's
// placement cache key and the router's shard key. For every request body
// Resolve accepts:
//
//   - permuting workloads and antiAffinity, flipping rule orientation and
//     duplicating rules, yields identical Canonical bytes;
//   - re-resolving a request rebuilt from the resolved Input is
//     idempotent: same Canonical bytes again.
func FuzzPlaceCanonical(f *testing.F) {
	seeds := []api.PlaceRequest{
		testRequest(),
		permutedRequest(),
		{
			Arch: "nehalem", Seed: 3,
			Workloads: []api.PlaceWorkload{
				{Name: "a", Bench: "EP"}, {Name: "b", Bench: "Stream", Threads: 2}, {Name: "c", Bench: "MG"},
			},
			AntiAffinity: []api.AffinityRule{{A: "b", B: "b"}, {A: "c", B: "a"}, {A: "a", B: "c"}},
		},
		{Arch: "smt8", Chips: 2, MaxPerCore: 4, Workloads: []api.PlaceWorkload{{Name: "x", Bench: "Swim", Threads: 5}}},
	}
	for i, req := range seeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, uint64(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, perm uint64) {
		var req api.PlaceRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		in := resolveReq(req)
		if in == nil {
			return
		}
		want := canonicalT(t, in)

		// Property 1: order and duplication do not reach the canonical form.
		rng := xrand.New(perm)
		p := req
		p.Workloads = append([]api.PlaceWorkload(nil), req.Workloads...)
		shuffle(rng, len(p.Workloads), func(i, j int) { p.Workloads[i], p.Workloads[j] = p.Workloads[j], p.Workloads[i] })
		p.AntiAffinity = nil
		for _, r := range req.AntiAffinity {
			if rng.Intn(2) == 0 {
				r.A, r.B = r.B, r.A
			}
			p.AntiAffinity = append(p.AntiAffinity, r)
			if rng.Intn(3) == 0 {
				p.AntiAffinity = append(p.AntiAffinity, r)
			}
		}
		shuffle(rng, len(p.AntiAffinity), func(i, j int) {
			p.AntiAffinity[i], p.AntiAffinity[j] = p.AntiAffinity[j], p.AntiAffinity[i]
		})
		pin := resolveReq(p)
		if pin == nil {
			t.Fatalf("Resolve rejected a permutation of an accepted request:\n%s", body)
		}
		if got := canonicalT(t, pin); !bytes.Equal(got, want) {
			t.Fatalf("permutation changed the canonical form:\n%s\n%s", want, got)
		}

		// Property 2: the resolved Input, spelled back as a request,
		// resolves to itself.
		re := api.PlaceRequest{Arch: in.Desc.Name, Chips: in.Chips, MaxPerCore: in.MaxPerCore, Seed: in.Seed}
		for _, w := range in.Workloads {
			re.Workloads = append(re.Workloads, api.PlaceWorkload{Name: w.Name, Spec: w.Spec, Threads: w.Threads})
		}
		for _, a := range in.Anti {
			re.AntiAffinity = append(re.AntiAffinity, api.AffinityRule{A: in.Workloads[a[0]].Name, B: in.Workloads[a[1]].Name})
		}
		rin := resolveReq(re)
		if rin == nil {
			t.Fatalf("Resolve rejected the request rebuilt from its own Input:\n%s", want)
		}
		if again := canonicalT(t, rin); !bytes.Equal(again, want) {
			t.Fatalf("re-resolving is not idempotent:\n%s\n%s", want, again)
		}
	})
}
