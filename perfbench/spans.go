package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program
// around its exported entry points. Parent indexes the span that caused it
// (-1 for a root); ID is the round or request the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span and work count of a traced run in memory; they
// are written out once, when the run ends. A nil recorder records nothing,
// so untraced runs pay no timing cost.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64

	// root is the engine-level span currently open (a FeedAll or a
	// benchmark round), parent of control-plane calls; control is the
	// control-plane span currently open (a Step or Rebalance), parent of
	// planner and publish calls. Both are -1 when none is open.
	root    atomic.Int32
	control atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), counts: map[string]float64{}}
	r.root.Store(-1)
	r.control.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int32, id int64) int32 {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: t, End: -1, Parent: parent, ID: id})
	return int32(len(r.spans) - 1)
}

// end closes a span opened by begin.
func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = t
}

// setRoot marks span i (or -1 for none) as the open engine-level span.
func (r *recorder) setRoot(i int32) {
	if r != nil {
		r.root.Store(i)
	}
}

// add records a work count at a seam.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

// snapshot returns the closed spans (open ones are dropped) and counts.
func (r *recorder) snapshot() ([]span, map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := make([]span, 0, len(r.spans))
	remap := make([]int32, len(r.spans))
	for i, s := range r.spans {
		remap[i] = -1
		if s.End < 0 {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = remap[s.Parent]
		}
		remap[i] = int32(len(spans))
		spans = append(spans, s)
	}
	counts := make(map[string]float64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	return spans, counts
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// planner calls inside one round) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered measures the union of the given spans' intervals clipped to
// [lo, hi].
func covered(spans []span, idx []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// rootCoverage is the union of the root spans' intervals inside [lo, hi].
func rootCoverage(spans []span, lo, hi int64) int64 {
	var roots []int32
	for i, s := range spans {
		if s.Parent < 0 {
			roots = append(roots, int32(i))
		}
	}
	return covered(spans, roots, lo, hi)
}

// durations groups span durations by name, in the given unit.
func durations(spans []span, unit time.Duration) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/float64(unit))
	}
	for k, v := range out {
		out[k] = sorted(v)
	}
	return out
}

// writeSpans writes the run's spans and counts as one JSON file.
func writeSpans(path string, spans []span, counts map[string]float64, notes []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Notes  []string           `json:"notes"`
		Counts map[string]float64 `json:"counts"`
		Spans  []span             `json:"spans"`
	}{notes, counts, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
