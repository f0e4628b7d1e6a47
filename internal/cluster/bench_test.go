package cluster

import (
	"math/rand"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
)

// BenchmarkSimEventLoop measures the sim event loop alone: the traffic
// pipeline on 20 simulated servers under one plan for 800 qps, applied once
// before the timer starts, with no controller stepping, telemetry or
// tracing. One op is one request served end to end (arrival, network hops,
// batches, fan-out, drop policy), so allocs/op is allocations per request;
// sim_requests/s is the simulated-request throughput.
func BenchmarkSimEventLoop(b *testing.B) {
	const qps, servers, slo = 800.0, 20, 0.250
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, slo, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: servers, NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30, SolveTimeLimit: 10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := alloc.Allocate(qps)
	if err != nil {
		b.Fatal(err)
	}
	eng := &sim.Engine{}
	cl, err := New(eng, meta, policy.Opportunistic{}, metrics.NewCollector(30, servers), Options{
		Servers: servers, SLOSec: slo, NetLatencySec: 0.002, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl.ApplyPlan(plan, core.MostAccurateFirst(g, core.ExpandPlan(plan), qps*1.30, meta.MultFactor))

	rng := rand.New(rand.NewSource(2))
	left := b.N
	var arrive func()
	arrive = func() {
		cl.InjectRequest()
		if left--; left > 0 {
			eng.After(rng.ExpFloat64()/qps, arrive)
		}
	}
	eng.At(0, arrive)
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunAll()
	b.StopTimer()
	if cl.TotalInjected != int64(b.N) || cl.Inflight() != 0 {
		b.Fatalf("injected %d of %d, %d still in flight", cl.TotalInjected, b.N, cl.Inflight())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim_requests/s")
}
