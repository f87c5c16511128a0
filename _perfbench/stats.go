package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the candidate tail percentiles in basis points of a
// percent (9900 = p99), highest first.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 7500, 5000}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, using nearest-rank percentiles:
// the p-th percentile is the sample of rank ceil(p·n), so n − rank samples
// lie beyond it. ok is false when n is too small for any (n < 20).
func tailPercentile(n int) (bp int, ok bool) {
	for _, p := range tailLadder {
		rank := (p*n + 9999) / 10000
		if n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rankValue returns the nearest-rank percentile (bp basis points of a
// percent) of sorted values.
func rankValue(sorted []float64, bp int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := (bp*len(sorted) + 9999) / 10000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle of values (the mean of the two middle values
// for an even count); NaN for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// dist summarises one timing series: the median, the tail percentile the
// sample supports and the sample count.
type dist struct {
	N      int
	Median float64
	// TailP is the tail percentile in basis points of a percent; 0 when
	// fewer than 20 samples support none.
	TailP int
	Tail  float64
}

// summarize builds the dist of values.
func summarize(values []float64) dist {
	d := dist{N: len(values), Median: median(values)}
	if p, ok := tailPercentile(len(values)); ok {
		s := append([]float64(nil), values...)
		sort.Float64s(s)
		d.TailP, d.Tail = p, rankValue(s, p)
	}
	return d
}

// scaled converts durations to float64 in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
