package main

import (
	"math/rand"
	"time"

	"loki/internal/trace"
)

// The benchmark's inputs are generated here, from the seed argument alone;
// the program under test only ever receives the generated traces, demand
// levels and request schedules.

// azureTrace is sim-azure's day: 96 steps of 10 s shaped like the Azure
// Functions trace, peaking at 1,100 qps.
func azureTrace(seed int64) *trace.Trace {
	return trace.AzureLike(seed, 96, 10).ScaleToPeak(1100)
}

// steadyTrace is sim-steady's flat 800 qps over 600 simulated seconds; the
// seed varies only the engine's Poisson arrivals.
func steadyTrace(int64) *trace.Trace { return trace.Ramp(800, 800, 60, 10) }

// demandWalk is fleet-rounds' per-tenant demand: each tenant starts at
// base qps and drifts by a seeded ±4% per round, clamped to [0.5, 1.5]×base.
type demandWalk struct {
	rng   *rand.Rand
	base  float64
	level []float64
}

func newDemandWalk(seed int64, tenants int, base float64) *demandWalk {
	w := &demandWalk{rng: rand.New(rand.NewSource(seed)), base: base, level: make([]float64, tenants)}
	for i := range w.level {
		w.level[i] = base
	}
	return w
}

// next advances every tenant by one round of drift.
func (w *demandWalk) next() {
	for i := range w.level {
		l := w.level[i] * (1 + 0.08*w.rng.Float64() - 0.04)
		w.level[i] = min(max(l, 0.5*w.base), 1.5*w.base)
	}
}

// poissonSchedule returns the due offsets of an open-loop Poisson arrival
// process lasting total: a linear ramp from half of rate to rate over ramp,
// then rate.
func poissonSchedule(seed int64, rate float64, ramp, total time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		r := rate
		if w := ramp.Seconds(); t < w {
			r = rate * (0.5 + 0.5*t/w)
		}
		t += rng.ExpFloat64() / r
		if t >= total.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
