package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := azureTrace(5), azureTrace(5); !reflect.DeepEqual(a, b) {
		t.Error("azureTrace differs for one seed")
	}
	if a, b := azureTrace(5), azureTrace(6); reflect.DeepEqual(a.QPS, b.QPS) {
		t.Error("azureTrace ignores its seed")
	}

	walk := func(seed int64) [][]float64 {
		w := newDemandWalk(seed, 12, 100)
		var out [][]float64
		for r := 0; r < 50; r++ {
			out = append(out, append([]float64(nil), w.level...))
			w.next()
		}
		return out
	}
	if !reflect.DeepEqual(walk(3), walk(3)) {
		t.Error("demand walk differs for one seed")
	}
	if reflect.DeepEqual(walk(3), walk(4)) {
		t.Error("demand walk ignores its seed")
	}

	sched := func(seed int64) []time.Duration { return poissonSchedule(seed, 2000, time.Second, 3*time.Second) }
	if !reflect.DeepEqual(sched(9), sched(9)) {
		t.Error("arrival schedule differs for one seed")
	}
	if reflect.DeepEqual(sched(9), sched(10)) {
		t.Error("arrival schedule ignores its seed")
	}
}

func TestDemandWalkStaysInBand(t *testing.T) {
	w := newDemandWalk(1, 4, 100)
	for r := 0; r < 2000; r++ {
		prev := append([]float64(nil), w.level...)
		w.next()
		for i, l := range w.level {
			if l < 50 || l > 150 {
				t.Fatalf("round %d: level %v outside [50, 150]", r, l)
			}
			if step := l / prev[i]; step < 0.96-1e-9 || step > 1.04+1e-9 {
				if l != 50 && l != 150 {
					t.Fatalf("round %d: step %v outside ±4%%", r, step)
				}
			}
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	s := poissonSchedule(1, 2000, time.Second, 11*time.Second)
	// Half rate rising to full over the 1 s ramp (1,500 expected), then
	// 10 s at 2,000 qps.
	if n := len(s); n < 20500 || n > 22500 {
		t.Fatalf("schedule holds %d requests, want about 21,500", n)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if last := s[len(s)-1]; last >= 11*time.Second {
		t.Fatalf("last request due at %v, past the schedule's end", last)
	}
}
