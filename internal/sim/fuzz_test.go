package sim

import (
	"sort"
	"testing"
)

// FuzzEngineOrder checks the event order against its specification: events
// run in a stable sort by (time, scheduling order), and Run(until) executes
// nothing past until. Each input byte after the first schedules one event at
// one of eight times, so exact ties are common; its high bits make the event
// schedule a follow-up from inside the run, at a delay of 0 to 3 (0 ties
// with the running event's own time).
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 0x18, 0x08, 0x38, 0x48, 0xc8})
	f.Add([]byte{9, 7, 6, 5, 4, 3, 2, 1, 0, 0x9f, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		type sched struct {
			at  float64
			ord int // scheduling order
		}
		var e Engine
		var all []sched
		var ran []int
		var at func(t float64, b byte, depth int)
		at = func(t float64, b byte, depth int) {
			ord := len(all)
			all = append(all, sched{t, ord})
			e.At(t, func() {
				ran = append(ran, ord)
				if b&0x08 != 0 && depth < 3 {
					at(e.Now()+float64((b>>4)&3), b>>1|b<<7, depth+1)
				}
			})
		}
		until := float64(data[0] % 10)
		for _, b := range data[1:] {
			at(float64(b&7), b, 0)
		}

		e.Run(until)
		if e.Now() != until {
			t.Fatalf("clock after Run(%g) = %g", until, e.Now())
		}
		done := make([]bool, len(all))
		for _, ord := range ran {
			if all[ord].at > until {
				t.Fatalf("Run(%g) executed an event at %g", until, all[ord].at)
			}
			done[ord] = true
		}
		for _, s := range all {
			if !done[s.ord] && s.at <= until {
				t.Fatalf("Run(%g) left event #%d at %g pending", until, s.ord, s.at)
			}
		}
		e.RunAll()

		want := append([]sched(nil), all...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(ran) != len(want) {
			t.Fatalf("ran %d of %d events", len(ran), len(want))
		}
		for i, w := range want {
			if ran[i] != w.ord {
				t.Fatalf("position %d ran event #%d (t=%g), want #%d (t=%g)",
					i, ran[i], all[ran[i]].at, w.ord, w.at)
			}
		}
	})
}
