package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileHasTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   int
		wantOK bool
	}{
		{19, 0, false},
		{20, 5000, true},
		{39, 5000, true},
		{40, 7500, true},
		{100, 9000, true},
		{199, 9000, true},
		{200, 9500, true},
		{1000, 9900, true},
		{9999, 9900, true},
		{10000, 9990, true},
		{100000, 9999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		rank := (got*c.n + 9999) / 10000
		if beyond := c.n - rank; beyond < minBeyond {
			t.Errorf("n=%d p=%d leaves %d samples beyond, want >= %d", c.n, got, beyond, minBeyond)
		}
		// The next percentile up must not also qualify.
		for _, p := range tailLadder {
			if p > got && c.n-(p*c.n+9999)/10000 >= minBeyond {
				t.Errorf("n=%d: p=%d also has %d beyond, so %d is not the highest", c.n, p, minBeyond, got)
			}
		}
	}
}

func TestSummarizePicksRankValues(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // 1000 .. 1, unsorted input
	}
	d := summarize(vals)
	if d.N != 1000 || d.Median != 500.5 || d.TailP != 9900 || d.Tail != 990 {
		t.Fatalf("summarize = %+v, want n=1000 median=500.5 p99=990", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.TailP != 0 || d.Median != 2 {
		t.Fatalf("summarize of 3 samples = %+v, want median 2 and no tail", d)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
	if got := medianOf([]time.Duration{time.Second, 3 * time.Second}, time.Millisecond); got != 2000 {
		t.Fatalf("medianOf = %v ms, want 2000", got)
	}
}

func TestOpsPerSecondIsTheMedianWindow(t *testing.T) {
	res := &liveResult{Ops: 30, Window: 10 * time.Second, Rates: []float64{1, 9, 4}}
	if got := opsPerSecond(res); got != 4 {
		t.Errorf("windowed pass: %v ops/s, want the median window, 4", got)
	}
	res.Rates = nil
	if got := opsPerSecond(res); got != 3 {
		t.Errorf("pass without windows: %v ops/s, want 30 ops / 10 s", got)
	}
}
