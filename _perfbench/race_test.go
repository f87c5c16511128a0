//go:build race

package main

// raceEnabled lets the simulating smoke tests skip under the race
// detector, whose 10-20× slowdown turns a 6 s campaign sweep into minutes.
// The metric-fleet smoke, which drives two concurrent clients through the
// fleet and the shared result, still runs.
const raceEnabled = true
