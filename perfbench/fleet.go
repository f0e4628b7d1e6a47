package main

import (
	"fmt"
	"time"

	"loki/internal/core"
	"loki/internal/profiles"
	"loki/internal/telemetry"
)

// fleet-rounds: planning rounds with no engine. A MultiController splits
// a 400-server, three-class pool (20/40/40 fast/mid/slow at speed 2/1/0.5)
// among 12 traffic-chain tenants, with the allocator options and greedy
// budget recorded for the fleet experiment.
const (
	fleetServers = 400
	fleetTenants = 12
	// fleetRoundTarget is the round-time limit planning rounds are held
	// to; slo_attainment on this workload is the share of rounds within it.
	fleetRoundTarget = 100 * time.Millisecond
	// A run walks several independent segments, each on a freshly built
	// controller starting from base demand, so that one run averages over
	// many walks: fleetSegRounds measured rounds per segment, each segment
	// about fleetSegSec seconds on the reference host, and at least
	// fleetMinSegments so that the round p99 has ten rounds beyond it.
	fleetSegRounds   = 200
	fleetSegSec      = 4
	fleetMinSegments = 5
	// fleetTail is the reported tail percentile of round time.
	fleetTail = 0.99
)

// fleetBase is each tenant's base demand: about 60% of an even pool split
// at the chain pipeline's ~28 qps per speed-1.0 server.
const fleetBase = 16.8 * fleetServers / fleetTenants

type fleetStack struct {
	ctrl    *core.MultiController
	control core.Control
	tenants []*core.Tenant
	allocs  []*core.Allocator
	classes []profiles.Class
	reg     *telemetry.Registry
	walk    *demandWalk
	rec     *recorder
}

// buildFleet stands the controller up with its own demand walk.
func buildFleet(walkSeed int64, rec *recorder) (*fleetStack, error) {
	fast, mid := fleetServers/5, 2*fleetServers/5
	classes := []profiles.Class{
		{Name: "fast", Count: fast, Speed: 2.0},
		{Name: "mid", Count: mid, Speed: 1.0},
		{Name: "slow", Count: fleetServers - fast - mid, Speed: 0.5},
	}
	g := profiles.TrafficChain()
	// The profiles are the program's fixed model of its hardware, as in the
	// fleet experiment; the seed drives only the demand walk.
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
	f := &fleetStack{classes: classes, reg: telemetry.NewRegistry(), rec: rec,
		walk: newDemandWalk(walkSeed, fleetTenants, fleetBase)}
	for i := 0; i < fleetTenants; i++ {
		meta := core.NewMetadataStoreHetero(g, classes, prof, sloSec, profiles.Batches)
		alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
			NetLatencySec: netLatency, KeepWarm: true,
			Headroom: headroom, SolveTimeLimit: 2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		f.allocs = append(f.allocs, alloc)
		f.tenants = append(f.tenants, &core.Tenant{
			Name: fmt.Sprintf("t%02d", i), Meta: meta, Alloc: plannerSeam(alloc, rec),
			RouteHeadroom: headroom,
		})
	}
	var err error
	if f.ctrl, err = core.NewMultiController(fleetServers, f.tenants); err != nil {
		return nil, err
	}
	f.ctrl.GreedyReplaceBudget = fleetTenants
	f.ctrl.SetTelemetry(f.reg)
	f.control = controlSeam(f.ctrl, rec)
	return f, nil
}

// round observes the walk's current demand (converging each tenant's
// estimate onto it), runs one forced planning round, checks the grants and
// advances the walk. It returns the Step wall time.
func (f *fleetStack) round(id int64, o *outcome) (time.Duration, error) {
	rs := f.rec.begin("fleet.round", -1, id)
	f.rec.setRoot(rs)
	for i, t := range f.tenants {
		for k := 0; k < 8; k++ {
			t.Meta.ObserveDemand(f.walk.level[i])
		}
	}
	t0 := time.Now()
	err := f.control.Step(true)
	d := time.Since(t0)
	f.rec.setRoot(-1)
	f.rec.end(rs)
	if err != nil {
		return d, err
	}
	f.checkGrants(id, o)
	return d, nil
}

// checkGrants is fleet-rounds' output check: no class is granted more
// servers than it has, and every tenant holds a plan.
func (f *fleetStack) checkGrants(id int64, o *outcome) {
	grants := f.ctrl.ClassGrants()
	for c, cl := range f.classes {
		total := 0
		for _, g := range grants {
			if c < len(g) {
				total += g[c]
			}
		}
		o.check(total <= cl.Count, "round %d: class %s granted %d of %d servers", id, cl.Name, total, cl.Count)
	}
	for i := range f.tenants {
		o.check(f.ctrl.PlanOf(i) != nil, "round %d: tenant %d holds no plan", id, i)
	}
}

// planQuality is the demand-weighted expected accuracy of the standing
// plans and the servers they use.
func (f *fleetStack) planQuality() (acc, servers float64) {
	var w float64
	for i := range f.tenants {
		p := f.ctrl.PlanOf(i)
		if p == nil {
			continue
		}
		acc += f.walk.level[i] * p.ExpectedAccuracy
		w += f.walk.level[i]
		servers += float64(p.ServersUsed)
	}
	return ratio(acc, w), servers
}

func (f *fleetStack) milpSolves() int {
	n := 0
	for _, a := range f.allocs {
		n += a.Perf().MILPSolves
	}
	return n
}

// fleetSession is one measured stretch of segments.
type fleetSession struct {
	setup        []float64
	roundMS      []float64
	acc, servers []float64
	cpu          float64 // process CPU over the measured rounds
	solves       int
	wall         int64
	scrapeMS     float64
	scrapeBytes  float64
	series       float64
}

// runFleetSession walks the given number of segments; segment k's walk is
// seeded seed*1000+k. Each segment stands a controller up (its set-up:
// build plus the first round), runs one unmeasured warm-up round, then
// measures fleetSegRounds rounds.
func runFleetSession(seed int64, rec *recorder, segments int, o *outcome) (*fleetSession, error) {
	s := &fleetSession{}
	for seg := 0; seg < segments; seg++ {
		cpu0 := cpuSeconds()
		sp := rec.begin("bench.setup", -1, int64(seg))
		f, err := buildFleet(seed*1000+int64(seg), rec)
		if err == nil {
			_, err = f.round(0, o)
		}
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, cpuSeconds()-cpu0)
		f.walk.next()
		if _, err := f.round(1, o); err != nil {
			return nil, err
		}
		f.walk.next()
		solves0, cpu0 := f.milpSolves(), cpuSeconds()
		for id := int64(2); id < 2+fleetSegRounds; id++ {
			d, err := f.round(id, o)
			o.attempted++
			if err != nil {
				o.failed++
				return nil, err
			}
			s.roundMS = append(s.roundMS, float64(d.Nanoseconds())/1e6)
			acc, srv := f.planQuality()
			s.acc, s.servers = append(s.acc, acc), append(s.servers, srv)
			f.walk.next()
		}
		s.cpu += cpuSeconds() - cpu0
		s.solves += f.milpSolves() - solves0
		s.scrapeMS, s.scrapeBytes, s.series = scrape(f.reg)
	}
	if rec != nil {
		s.wall = rec.now()
	}
	return s, nil
}

func runFleet(rc runCtx) (*outcome, error) {
	o := newOutcome()
	if !rc.trace {
		s, err := runFleetSession(rc.seed, nil, max(fleetMinSegments, rc.units(fleetSegSec)), o)
		if err != nil {
			return nil, err
		}
		rounds := sorted(s.roundMS)
		tail, ok := tailQuantile(rounds, fleetTail)
		o.check(ok, "round p%.0f needs %d rounds beyond it; got %d rounds", 100*fleetTail, minTail, len(rounds))
		within := 0
		for _, ms := range rounds {
			if ms <= float64(fleetRoundTarget.Milliseconds()) {
				within++
			}
		}
		v := o.values
		v["setup_s"] = median(s.setup)
		v["op_p50_ms"] = quantile(rounds, 0.5)
		v["op_tail_ms"] = tail
		v["slo_attainment"] = float64(within) / float64(len(rounds))
		v["accuracy"] = sum(s.acc) / float64(len(s.acc))
		v["mean_servers"] = sum(s.servers) / float64(len(s.servers))
		v["cpu_us_per_op"] = 1e6 * s.cpu / float64(len(rounds))
		o.note("fleet-rounds: %d rounds, %d MILP solves, round p50 %.2f ms p99 %.1f ms, setup %.2f s median",
			len(s.roundMS), s.solves, v["op_p50_ms"], v["op_tail_ms"], v["setup_s"])
		return o, nil
	}

	// Traced: half the segments run untraced for the overhead baseline,
	// then the same segments traced.
	half := max(1, rc.units(fleetSegSec)/2)
	plain, err := runFleetSession(rc.seed, nil, half, o)
	if err != nil {
		return nil, err
	}
	proc := startProc()
	rec := newRecorder()
	s, err := runFleetSession(rc.seed, rec, half, o)
	if err != nil {
		return nil, err
	}
	v := o.values
	proc.finish(v)
	spans, counts := rec.snapshot()
	controlLayers(spans, counts, s.wall, v)
	v["milp.solves"] = float64(s.solves)
	v["telemetry.scrape_ms_p50"] = s.scrapeMS
	v["telemetry.scrape_bytes"] = s.scrapeBytes
	v["telemetry.series"] = s.series
	plainRate := float64(len(plain.roundMS)) / sum(plain.roundMS)
	tracedRate := float64(len(s.roundMS)) / sum(s.roundMS)
	v["trace.overhead"] = 1 - tracedRate/plainRate
	o.note("fleet-rounds traced: %d rounds; blocking path fleet.round -> core.step (%.1f%% of wall) -> alloc.capped (%.1f%%) / alloc.* (%.1f%%); unattributed %.1f%%; tracing overhead %.1f%% of rounds per second",
		len(s.roundMS), 100*v["core.wall_share"], 100*v["alloc.capped_wall_share"], 100*v["alloc.wall_share"],
		100*v["trace.unattributed_share"], 100*v["trace.overhead"])
	if err := writeSpans(tracePath(rc), spans, counts, o.notes); err != nil {
		o.note("writing spans: %v", err)
	}
	return o, nil
}
