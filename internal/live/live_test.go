package live

import (
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// TestLiveEngineServesTrace runs a short real-time workload end to end: the
// controller allocates, goroutine workers batch and forward, and the
// metrics must show the traffic served with sane accuracy. This is the unit
// test under the §6.2 validation experiment.
func TestLiveEngineServesTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (~8s wall)")
	}
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30, SolveTimeLimit: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(5, 20)
	eng, err := New(meta, policy.Opportunistic{}, col, Options{
		Servers: 20, SLOSec: 0.250, NetLatencySec: 0.002, Seed: 3,
		TimeScale: 0.5, // 2× compressed wall time
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewMultiController(20, []*core.Tenant{{
		Name: "traffic", Meta: meta, Alloc: alloc, RouteHeadroom: 0.30,
		Publish: eng.ApplyPlan,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Constant load: ramps stress controller lag identically in both
	// engines (that is the validation experiment's job); the unit test
	// checks the steady-state machinery.
	tr := &trace.Trace{Interval: 4, QPS: []float64{200, 200, 200, 200}}
	meta.ObserveDemand(tr.QPS[0])
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(ctrl); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(tr); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}

	if eng.TotalInjected == 0 {
		t.Fatal("no traffic injected")
	}
	if eng.TotalInjected != eng.TotalCompleted+eng.TotalDropped {
		t.Fatalf("conservation: %d != %d + %d", eng.TotalInjected, eng.TotalCompleted, eng.TotalDropped)
	}
	s := col.Summarize()
	if s.MeanAccuracy < 0.9 {
		t.Fatalf("accuracy %.4f, want ≈1.0 at low demand", s.MeanAccuracy)
	}
	if s.ViolationRatio > 0.15 {
		t.Fatalf("violation ratio %.4f, too high for a steady lightly-loaded run", s.ViolationRatio)
	}
	if eng.ActiveServers() == 0 {
		t.Fatal("no active servers after run")
	}
}

func TestLiveEngineRejectsZeroServers(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	if _, err := New(meta, policy.NoDrop{}, nil, Options{}); err == nil {
		t.Fatal("want error for zero servers")
	}
}
