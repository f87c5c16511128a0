package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine a result was measured on, so a slow host
// can be told from a slow commit.
type hostInfo struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

func readHost() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// calibOps is the fixed size of the host-calibration kernel.
const calibOps = 20_000_000

// calibSink keeps the kernel's result live so the loop is not removed.
var calibSink uint64

// calibrate times a fixed integer kernel (an xorshift-multiply chain with a
// data-dependent branch) three times and returns the median speed in
// million kernel steps per second.
func calibrate() float64 {
	runs := make([]float64, 3)
	for i := range runs {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for n := 0; n < calibOps; n++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&1 == 0 {
				x *= 0xbf58476d1ce4e5b9
			}
		}
		runs[i] = calibOps / 1e6 / time.Since(start).Seconds()
		calibSink += x
	}
	return median(runs)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
