package engine

import (
	"errors"
	"testing"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// newSimHarness wires one pipeline as the only tenant of a simulated
// MultiEngine and a MultiController, pre-warmed for 100 QPS.
func newSimHarness(t *testing.T, seed int64) (MultiEngine, *core.MultiController) {
	t.Helper()
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{Seed: seed}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: 10, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewMulti(KindSimulated, MultiConfig{
		Servers: 10, NetLatencySec: 0.002, Seed: seed,
		Tenants: []TenantConfig{{
			Meta:      meta,
			Policy:    policy.Opportunistic{},
			Collector: metrics.NewCollector(10, 10),
			SLOSec:    0.250,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewMultiController(10, []*core.Tenant{{
		Name: "chain", Meta: meta, Alloc: alloc, RouteHeadroom: 0.30,
		Publish: func(plan *core.Plan, routes *core.Routes) { eng.ApplyPlan(0, plan, routes) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	meta.ObserveDemand(100)
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	return eng, ctrl
}

func runOnce(t *testing.T, seed int64) Stats {
	t.Helper()
	eng, ctrl := newSimHarness(t, seed)
	if err := eng.Start(ctrl); err != nil {
		t.Fatal(err)
	}
	tr := trace.Ramp(80, 160, 8, 2)
	if err := eng.FeedAll([]*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	return eng.Stats(0)
}

func TestSimulatedConservation(t *testing.T) {
	st := runOnce(t, 1)
	if st.Injected == 0 {
		t.Fatal("no traffic")
	}
	if st.Injected != st.Completed+st.Dropped {
		t.Fatalf("conservation: %d != %d + %d", st.Injected, st.Completed, st.Dropped)
	}
}

func TestSimulatedDeterministicPerSeed(t *testing.T) {
	if a, b := runOnce(t, 7), runOnce(t, 7); a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSimulatedLifecycleErrors(t *testing.T) {
	eng, ctrl := newSimHarness(t, 2)
	if err := eng.Submit(0); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Submit before Start = %v", err)
	}
	if err := eng.FeedAll([]*trace.Trace{trace.Ramp(10, 20, 2, 1)}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Feed before Start = %v", err)
	}
	if err := eng.Start(ctrl); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatalf("Stop must be idempotent, got %v", err)
	}
	if err := eng.Submit(0); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop = %v", err)
	}
	st := eng.Stats(0)
	if st.Injected != 1 || st.Completed+st.Dropped != 1 {
		t.Fatalf("submitted request not drained by Stop: %+v", st)
	}
}

func TestSubmitOnlyDrainsAtStop(t *testing.T) {
	eng, ctrl := newSimHarness(t, 3)
	if err := eng.Start(ctrl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := eng.Submit(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats(0)
	if st.Injected != 25 || st.Completed == 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}
