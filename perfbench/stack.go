package main

import (
	"context"
	"time"

	"loki/internal/core"
	"loki/internal/engine"
	"loki/internal/ingress"
	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/telemetry"
)

// The serving stack is assembled from the layers' exported constructors
// with the defaults loki.NewMulti and AddPipeline ship: 250 ms SLO, 2 ms
// network latency, opportunistic drops, 0.30 headroom, 500 ms MILP limit,
// plan cache and parallel planning on, telemetry on with 1/64 request
// sampling. Building it here rather than through the public API is what
// lets the traced run put timing decorators at the layer seams; the stack
// test pins it to the public API's reports.

const (
	sloSec     = 0.250
	netLatency = 0.002
	headroom   = 0.30
	tenantName = "traffic"
)

type stackConfig struct {
	kind    engine.Kind
	servers int
	// seed drives the engine's arrival process and the request tracer;
	// profileSeed the Model Profiler. The public API takes both from
	// WithSeed; the workloads hold the profiles fixed (zero, the API's
	// default) so that the benchmark seed varies only the inputs.
	seed, profileSeed int64
	// bucketSec is the metrics collector's bucket width (the public API
	// uses 30 s; the live workload measures a 1 s-aligned window).
	bucketSec float64
	// admission arms the ingress token bucket; timeScale is the wall-clock
	// engine's time compression (ignored by the simulator).
	admission bool
	timeScale float64
	// openQPS primes the first plan, as the first injection does.
	openQPS float64
}

// stack is one tenant's serving system: the traffic-analysis pipeline on
// a homogeneous pool behind the joint controller.
type stack struct {
	meta   *core.MetadataStore
	alloc  *core.Allocator
	col    *metrics.Collector
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	adm    *ingress.Admission
	eng    engine.MultiEngine
	ctrl   *core.MultiController
	// control is what the engine steps: the controller itself, or its
	// timing decorator in a traced run.
	control core.Control
}

// buildStack constructs the stack and publishes its first plan. rec, when
// non-nil, wraps the control, planner and publish seams in timing
// decorators; it changes no configuration and consumes no randomness.
func buildStack(cfg stackConfig, rec *recorder) (*stack, error) {
	g := profiles.TrafficTree()
	classes := profiles.DefaultClasses(cfg.servers)
	prof := (&profiles.Profiler{Seed: cfg.profileSeed}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := core.NewMetadataStoreHetero(g, classes, prof, sloSec, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers:        cfg.servers,
		NetLatencySec:  netLatency,
		KeepWarm:       true,
		Headroom:       headroom,
		SolveTimeLimit: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	s := &stack{meta: meta, alloc: alloc}
	s.col = metrics.NewCollector(cfg.bucketSec, cfg.servers)
	if cfg.admission {
		s.adm = ingress.NewAdmission(ingress.Config{SLOSec: sloSec, TargetUtilization: 1 / (1 + headroom)})
	}
	s.reg = telemetry.NewRegistry()
	tel := telemetry.NewCollector(s.reg, tenantName, []telemetry.WorkerClass{{Name: classes[0].Name, Count: classes[0].Count}})
	s.tracer = telemetry.NewTracer(tenantName, 1.0/64, cfg.seed+9001)
	s.eng, err = engine.NewMulti(cfg.kind, engine.MultiConfig{
		Servers:       cfg.servers,
		Classes:       classes,
		NetLatencySec: netLatency,
		Seed:          cfg.seed,
		TimeScale:     cfg.timeScale,
		Tenants: []engine.TenantConfig{{
			Meta: meta, Policy: policy.Opportunistic{}, Collector: s.col, SLOSec: sloSec,
			Admission: s.adm, Telemetry: tel, Tracer: s.tracer,
		}},
	})
	if err != nil {
		return nil, err
	}
	var demandCap float64
	if s.adm != nil {
		demandCap = alloc.MaxCapacity(0, 20000)
	}
	publish := func(plan *core.Plan, routes *core.Routes) {
		s.eng.ApplyPlan(0, plan, routes)
		if s.adm != nil {
			s.adm.SetRate(s.eng.Now(), ingress.FrontendRate(routes))
		}
	}
	tenant := &core.Tenant{
		Name:               tenantName,
		Meta:               meta,
		Alloc:              plannerSeam(alloc, rec),
		RouteHeadroom:      headroom,
		ForecastHorizonSec: core.DefaultForecastHorizonSec,
		DemandCapQPS:       demandCap,
		Publish:            publishSeam(publish, rec),
	}
	s.ctrl, err = core.NewMultiController(cfg.servers, []*core.Tenant{tenant})
	if err != nil {
		return nil, err
	}
	s.ctrl.SetTelemetry(s.reg)
	s.control = controlSeam(s.ctrl, rec)
	if cfg.openQPS > 0 {
		meta.ObserveDemand(cfg.openQPS)
	}
	if err := s.control.Step(true); err != nil {
		return nil, err
	}
	return s, nil
}

// submit is the ingress server's Submit hook, as the public API wires it.
func (s *stack) submit(ctx context.Context, _ string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.eng.Submit(0)
}
