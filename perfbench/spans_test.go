package main

import (
	"testing"
	"time"
)

// A synthetic round: a root [0, 100) with two overlapping children
// [10, 40) and [30, 60), the first of which has a child [15, 20), plus a
// second root [120, 150).
func syntheticSpans() []span {
	return []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 15, End: 20, Parent: 1},
		{Name: "root", Start: 120, End: 150, Parent: -1},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(syntheticSpans())
	// root: 100 - |[10,60)| = 50; a: 30 - 5 = 25; b: 30; c: 5; root2: 30.
	want := []int64{50, 25, 30, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCoverage(t *testing.T) {
	spans := syntheticSpans()
	if got := rootCoverage(spans, 0, 200); got != 130 {
		t.Errorf("root coverage = %d, want 130", got)
	}
	if got := rootCoverage(spans, 50, 130); got != 60 {
		t.Errorf("clipped root coverage = %d, want 60", got)
	}
	if got := covered(spans, spansNamed(spans, "a", "b", "c"), 0, 100); got != 50 {
		t.Errorf("children coverage = %d, want 50", got)
	}
}

func TestRecorderSnapshotDropsOpenSpans(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer", -1, 1)
	open := r.begin("open", outer, 1)
	inner := r.begin("inner", open, 1)
	r.end(inner)
	r.end(outer)
	r.add("n", 2)
	spans, counts := r.snapshot()
	if len(spans) != 2 || spans[0].Name != "outer" || spans[1].Name != "inner" {
		t.Fatalf("snapshot = %+v, want outer and inner", spans)
	}
	if spans[1].Parent != -1 {
		t.Errorf("inner's parent was open; remapped parent = %d, want -1", spans[1].Parent)
	}
	if counts["n"] != 2 {
		t.Errorf("count n = %v, want 2", counts["n"])
	}
	var nilRec *recorder
	if i := nilRec.begin("x", -1, 0); i != -1 {
		t.Errorf("nil recorder begin = %d, want -1", i)
	}
	nilRec.end(0)
	nilRec.add("x", 1)
	d := durations(spans, time.Nanosecond)
	if len(d["outer"]) != 1 || len(d["inner"]) != 1 {
		t.Errorf("durations = %v", d)
	}
}
