package main

import (
	"bytes"
	"strings"
	"time"

	"loki/internal/telemetry"
)

// spansNamed returns the indexes of the spans with any of the given names.
func spansNamed(spans []span, names ...string) []int32 {
	var out []int32
	for i, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, int32(i))
				break
			}
		}
	}
	return out
}

// controlLayers derives the arbiter, allocator, MILP and LP metrics of a
// traced run from its spans and seam counts; wall is the traced interval
// the shares are taken of.
func controlLayers(spans []span, counts map[string]float64, wall int64, v map[string]float64) {
	ms := durations(spans, time.Millisecond)
	us := durations(spans, time.Microsecond)

	steps := ms["core.step"]
	v["core.step_calls"] = float64(len(steps))
	v["core.step_ms_p50"] = quantile(steps, 0.5)
	v["core.step_ms_p99"] = quantile(steps, 0.99)
	solving := map[int32]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "alloc.") && s.Parent >= 0 {
			solving[s.Parent] = true
		}
	}
	v["core.solving_step_share"] = ratio(float64(len(solving)), float64(len(steps)))
	v["core.rebalance_calls"] = float64(len(us["core.rebalance"]))
	v["core.rebalance_us_p50"] = quantile(us["core.rebalance"], 0.5)
	v["core.publish_us_p50"] = quantile(us["core.publish"], 0.5)
	v["core.wall_share"] = ratio(float64(covered(spans, spansNamed(spans, "core.step", "core.rebalance"), 0, wall)), float64(wall))

	capped := ms["alloc.capped"]
	v["alloc.calls"] = float64(len(ms["alloc.allocate"]))
	v["alloc.capped_calls"] = float64(len(capped))
	v["alloc.capped_ms_p50"] = quantile(capped, 0.5)
	v["alloc.capped_ms_p99"] = quantile(capped, 0.99)
	v["alloc.greedy_calls"] = float64(len(us["alloc.greedy"]))
	v["alloc.greedy_us_p50"] = quantile(us["alloc.greedy"], 0.5)
	v["alloc.greedy_hit_share"] = ratio(counts["alloc.greedy_hits"], float64(len(us["alloc.greedy"])))
	v["alloc.wall_share"] = ratio(float64(covered(spans, spansNamed(spans, "alloc.allocate", "alloc.capped", "alloc.greedy"), 0, wall)), float64(wall))
	v["alloc.capped_wall_share"] = ratio(float64(covered(spans, spansNamed(spans, "alloc.capped"), 0, wall)), float64(wall))

	plans := counts["milp.plans"]
	v["milp.nodes"] = counts["milp.nodes"]
	v["milp.nodes_per_solve"] = ratio(counts["milp.nodes"], plans)
	v["milp.proven_share"] = ratio(counts["milp.proven"], plans)
	v["milp.truncated_share"] = ratio(counts["milp.truncated"], plans)
	v["lp.pivots"] = counts["lp.pivots"]
	v["lp.pivots_per_solve"] = ratio(counts["lp.pivots"], plans)
	v["lp.pivots_per_ms"] = ratio(counts["lp.pivots"], sum(ms["alloc.allocate"])+sum(capped))

	v["trace.wall_s"] = float64(wall) / 1e9
	v["trace.unattributed_share"] = 1 - ratio(float64(rootCoverage(spans, 0, wall)), float64(wall))
}

// scrape renders the telemetry registry as GET /metrics does and returns
// the render time, the exposition size and its sample-line count.
func scrape(reg *telemetry.Registry) (ms, size, series float64) {
	var b bytes.Buffer
	t0 := time.Now()
	reg.WritePrometheus(&b)
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	return ms, float64(b.Len()), float64(exposedSeries(b.Bytes()))
}

// exposedSeries counts the sample lines of a Prometheus text exposition.
func exposedSeries(b []byte) int {
	n := 0
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}
