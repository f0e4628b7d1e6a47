package main

import (
	"runtime"
	"time"

	"loki/internal/engine"
	"loki/internal/metrics"
	"loki/internal/trace"
)

// simPass is one serving run of a sim workload: a fresh stack, its first
// plan, the whole trace through FeedAll, and the drain.
type simPass struct {
	setup, feed, cpu float64 // seconds; cpu is process CPU during FeedAll
	sum              metrics.Summary
	stats            engine.Stats
	milpSolves       int
	rec              *recorder
	wall             int64 // traced passes: setup through drain, ns
	scrapeMS         float64
	scrapeBytes      float64
	series           float64
}

func (p *simPass) counts() [5]int {
	return [5]int{p.sum.Arrivals, p.sum.Completed, p.sum.Late, p.sum.Dropped, p.sum.Shed}
}

// simSetups is how many extra set-ups an untraced sim run times.
const simSetups = 15

// simStackConfig is the sim workloads' pool: 20 servers on the simulated
// engine, the first plan primed at the trace's opening rate, and the public
// API's 30 s report buckets.
func simStackConfig(seed int64, tr *trace.Trace) stackConfig {
	return stackConfig{kind: engine.KindSimulated, servers: 20, seed: seed, bucketSec: 30, openQPS: tr.QPS[0]}
}

func runSimPass(seed int64, tr *trace.Trace, traced bool) (*simPass, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	p := &simPass{rec: rec}
	t0 := time.Now()
	sp := rec.begin("bench.setup", -1, 0)
	s, err := buildStack(simStackConfig(seed, tr), rec)
	rec.end(sp)
	p.setup = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if err := s.eng.Start(s.control); err != nil {
		return nil, err
	}
	cpu0, f0 := cpuSeconds(), time.Now()
	fs := rec.begin("sim.feedall", -1, 0)
	rec.setRoot(fs)
	err = s.eng.FeedAll([]*trace.Trace{tr})
	rec.setRoot(-1)
	rec.end(fs)
	p.feed, p.cpu = time.Since(f0).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		s.eng.Stop()
		return nil, err
	}
	ss := rec.begin("sim.stop", -1, 0)
	err = s.eng.Stop()
	rec.end(ss)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		p.wall = rec.now()
	}
	p.sum, p.stats = s.col.Summarize(), s.eng.Stats(0)
	p.milpSolves = s.alloc.Perf().MILPSolves
	p.scrapeMS, p.scrapeBytes, p.series = scrape(s.reg)
	return p, nil
}

// checkSim is the sim workloads' output check: every request that arrived
// is accounted for once the drain is done.
func checkSim(o *outcome, p *simPass) {
	s := p.sum
	o.check(s.Arrivals == s.Completed+s.Late+s.Dropped,
		"request conservation: arrivals %d != completed %d + late %d + dropped %d", s.Arrivals, s.Completed, s.Late, s.Dropped)
	o.check(p.stats.Injected == p.stats.Completed+p.stats.Dropped,
		"engine drained with %d requests in flight", p.stats.Injected-p.stats.Completed-p.stats.Dropped)
}

// runSim drives a sim workload. Untraced, it runs whole passes, each about
// passSec seconds, and reports medians; traced, it runs half as many pairs
// of an untraced and a traced pass on the same inputs, checks that both see
// identical outcome counts, and reports the last traced pass's layers.
//
// Pass k draws its inputs from the sub-seed seed*1000+k, so that one run
// averages over several input sets rather than repeating one.
func runSim(rc runCtx, inputs func(seed int64) *trace.Trace, passSec float64) (*outcome, error) {
	o := newOutcome()
	var plain, traced []*simPass
	var proc *procProbe
	if rc.trace {
		proc = startProc()
	}
	var setups []float64
	if !rc.trace {
		// Set-up is a few milliseconds here, and its first solve depends on
		// the opening demand, so time extra stand-ups (construction,
		// profiling, first plan) on the sub-seeds' inputs for a steady
		// median, each from a collected heap, before the passes grow it.
		for k := int64(0); k < simSetups; k++ {
			seed := rc.seed*1000 + k
			cfg := simStackConfig(seed, inputs(seed))
			runtime.GC()
			cpu0 := cpuSeconds()
			if _, err := buildStack(cfg, nil); err != nil {
				return nil, err
			}
			setups = append(setups, cpuSeconds()-cpu0)
		}
	}
	passes := rc.units(passSec)
	if rc.trace {
		passes = max(1, passes/2)
	}
	for k := int64(0); k < int64(passes); k++ {
		seed := rc.seed*1000 + k
		tr := inputs(seed)
		p, err := runSimPass(seed, tr, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		checkSim(o, p)
		o.attempted += int64(p.sum.Arrivals + p.sum.Shed)
		if rc.trace {
			q, err := runSimPass(seed, tr, true)
			if err != nil {
				return nil, err
			}
			traced = append(traced, q)
			checkSim(o, q)
			o.check(q.counts() == p.counts(),
				"traced pass changed outcomes: untraced (arrivals, completed, late, dropped, shed) %v, traced %v", p.counts(), q.counts())
		}
	}
	if !rc.trace {
		simEndToEnd(o, plain, setups)
		return o, nil
	}
	proc.finish(o.values)
	simLayers(rc, o, plain, traced)
	return o, nil
}

func simEndToEnd(o *outcome, passes []*simPass, setup []float64) {
	var p50, p99, att, acc, srv, feed, reqs, cpu []float64
	for _, p := range passes {
		s := p.sum
		p50 = append(p50, s.LatencyP50*1000)
		p99 = append(p99, s.LatencyP99*1000)
		att = append(att, ratio(float64(s.Completed), float64(s.Arrivals+s.Shed)))
		acc = append(acc, s.MeanAccuracy)
		srv = append(srv, s.MeanServers)
		feed = append(feed, p.feed)
		reqs = append(reqs, float64(s.Arrivals))
		cpu = append(cpu, 1e6*p.cpu/float64(s.Arrivals))
	}
	v := o.values
	v["setup_s"] = median(setup)
	v["op_p50_ms"] = median(p50)
	v["op_tail_ms"] = median(p99)
	v["slo_attainment"] = median(att)
	v["accuracy"] = median(acc)
	v["mean_servers"] = median(srv)
	v["cpu_us_per_op"] = median(cpu)
	o.note("%d passes: %.0f requests per pass, FeedAll %.2f s median, setup %.3f s median",
		len(passes), median(reqs), median(feed), median(setup))
}

func simLayers(rc runCtx, o *outcome, plain, traced []*simPass) {
	last := traced[len(traced)-1]
	v := o.values
	spans, counts := last.rec.snapshot()
	controlLayers(spans, counts, last.wall, v)
	self := selfTimes(spans)
	var simSelf float64
	for i, s := range spans {
		if s.Name == "sim.feedall" {
			simSelf += float64(self[i]) / 1e9
		}
	}
	v["sim.self_s"] = simSelf
	v["sim.requests"] = float64(last.sum.Arrivals)
	v["sim.requests_per_self_s"] = ratio(float64(last.sum.Arrivals), simSelf)
	v["sim.dropped"] = float64(last.sum.Dropped)
	v["sim.rerouted"] = float64(last.stats.Rerouted)
	v["sim.wall_share"] = ratio(simSelf*1e9, float64(last.wall))
	v["sim.requests_per_wall_s"] = float64(last.sum.Arrivals) / last.feed
	v["milp.solves"] = float64(last.milpSolves)
	v["telemetry.scrape_ms_p50"] = last.scrapeMS
	v["telemetry.scrape_bytes"] = last.scrapeBytes
	v["telemetry.series"] = last.series

	var plainRPS, tracedRPS float64
	for i := range traced {
		plainRPS += float64(plain[i].sum.Arrivals) / plain[i].feed
		tracedRPS += float64(traced[i].sum.Arrivals) / traced[i].feed
	}
	v["trace.overhead"] = 1 - tracedRPS/plainRPS
	o.note("%s traced: blocking path sim.feedall (self %.1f%% of wall) -> core.step (%.1f%%) -> alloc.* (%.1f%%) -> core.publish; unattributed %.1f%%; tracing overhead %.1f%% of requests per FeedAll second",
		rc.workload, 100*v["sim.wall_share"], 100*v["core.wall_share"], 100*v["alloc.wall_share"],
		100*v["trace.unattributed_share"], 100*v["trace.overhead"])
	if err := writeSpans(tracePath(rc), spans, counts, o.notes); err != nil {
		o.note("writing spans: %v", err)
	}
	o.note("spans written to %s", tracePath(rc))
}
