package main

import (
	"testing"
	"time"
)

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two parallel children overlapping on [20, 30): covered = [10, 40).
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},
		// A disjoint child that runs past its parent's end: clipped to [90, 100).
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is its parent's, not the root's.
		{ID: 5, Parent: 2, Name: "d", Start: 12 * ms, End: 18 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 60 * ms, 2: 14 * ms, 3: 20 * ms, 4: 30 * ms, 5: 6 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	// A child nested entirely in another is covered once.
	nested := []span{
		{ID: 1, Name: "root", Start: 0, End: 50 * ms},
		{ID: 2, Parent: 1, Name: "outer", Start: 0, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "inner", Start: 10 * ms, End: 20 * ms},
	}
	if got := selfTimes(nested)[1]; got != 10*ms {
		t.Errorf("nested: root self = %v, want 10ms", got)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 7, 0)
	tr.do("child", 7, root, func() {})
	tr.end(root)
	open := tr.begin("open", 8, 0) // never closed: not reported
	_ = open
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Fatalf("child span %+v not linked to root %+v", spans[1], spans[0])
	}
	var nilTracer *tracer
	if d := nilTracer.do("x", 0, 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Fatalf("nil tracer still times the call: got %v", d)
	}
}
