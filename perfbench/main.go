// Command perfbench is the repository's benchmark: seeded workloads that
// drive the serving system end to end, and a traced mode that times the
// calls into each layer's exported entry points from outside.
//
//	go run . --workload sim-azure --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the human-readable report goes
// to standard error. A failed output check prints correct=false and exits
// non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one catalogue entry; the catalogues mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports. Each workload reads the
// names through its own unit of work (see README.md): a request on the sim
// and live workloads, a planning round on fleet-rounds. Program cost is
// measured in process CPU time, not wall time: on a shared host, steal
// moved the wall-clock rate of identical work by 2x within an hour, CPU
// time by a third of that.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"slo_attainment", "ratio"},
	{"accuracy", "ratio"},
	{"mean_servers", "servers"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what every traced run reports. A layer that is not on a
// workload's path reports zero work and zero time there.
var perLayer = []metricDef{
	{"ingress.requests", "count"},
	{"ingress.shed_share", "ratio"},
	{"ingress.handler_us_p50", "us"},
	{"ingress.handler_us_p99", "us"},
	{"ingress.self_us_p50", "us"},
	{"ingress.net_us_p50", "us"},
	{"ingress.rtt_ms_p99", "ms"},
	{"ingress.wall_share", "ratio"},
	{"live.submit_us_p50", "us"},
	{"live.submit_us_p99", "us"},
	{"live.object-detection.queue_ms_p50", "ms"},
	{"live.object-detection.exec_ms_p50", "ms"},
	{"live.object-detection.batch_mean", "count"},
	{"live.car-classification.queue_ms_p50", "ms"},
	{"live.car-classification.exec_ms_p50", "ms"},
	{"live.car-classification.batch_mean", "count"},
	{"live.facial-recognition.queue_ms_p50", "ms"},
	{"live.facial-recognition.exec_ms_p50", "ms"},
	{"live.facial-recognition.batch_mean", "count"},
	{"live.e2e_p99_ms", "ms"},
	{"live.goodput_qps", "1/s"},
	{"sim.requests_per_wall_s", "1/s"},
	{"sim.self_s", "s"},
	{"sim.requests", "count"},
	{"sim.requests_per_self_s", "1/s"},
	{"sim.dropped", "count"},
	{"sim.rerouted", "count"},
	{"sim.wall_share", "ratio"},
	{"core.step_calls", "count"},
	{"core.step_ms_p50", "ms"},
	{"core.step_ms_p99", "ms"},
	{"core.solving_step_share", "ratio"},
	{"core.rebalance_calls", "count"},
	{"core.rebalance_us_p50", "us"},
	{"core.publish_us_p50", "us"},
	{"core.wall_share", "ratio"},
	{"alloc.calls", "count"},
	{"alloc.capped_calls", "count"},
	{"alloc.capped_ms_p50", "ms"},
	{"alloc.capped_ms_p99", "ms"},
	{"alloc.greedy_calls", "count"},
	{"alloc.greedy_us_p50", "us"},
	{"alloc.greedy_hit_share", "ratio"},
	{"alloc.wall_share", "ratio"},
	{"alloc.capped_wall_share", "ratio"},
	{"milp.solves", "count"},
	{"milp.nodes", "count"},
	{"milp.nodes_per_solve", "count"},
	{"milp.proven_share", "ratio"},
	{"milp.truncated_share", "ratio"},
	{"lp.pivots", "count"},
	{"lp.pivots_per_solve", "count"},
	{"lp.pivots_per_ms", "1/ms"},
	{"telemetry.scrape_ms_p50", "ms"},
	{"telemetry.scrape_bytes", "B"},
	{"telemetry.series", "count"},
	{"proc.cpu_s", "s"},
	{"proc.gc_cycles", "count"},
	{"proc.alloc_mb", "MB"},
	{"proc.goroutines_max", "count"},
	{"gen.sent", "count"},
	{"gen.http_p50_ms", "ms"},
	{"gen.http_p90_ms", "ms"},
	{"gen.lag_ms_p99", "ms"},
	{"gen.lag_ms_max", "ms"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// runCtx carries a run's arguments to its workload.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// units sizes a run: the whole number of work units, each about per
// seconds on the reference host, that fit in the run's seconds. Fixing the
// work (rather than stopping on the clock) keeps a seed's inputs the same
// however fast the host is.
func (rc runCtx) units(per float64) int { return max(1, int(rc.seconds/per)) }

// outcome is what a workload hands back: operation counts, failed output
// checks, and metric values keyed by catalogue name.
type outcome struct {
	attempted, failed int64
	checks            []string
	values            map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads are the runnable workloads. BENCHMARK.json gates sim-azure,
// sim-steady and live-http; fleet-rounds is a diagnostic workload, kept out
// of the gate because its round times move by more than any bound allows
// between runs (see README.md).
var workloads = map[string]func(runCtx) (*outcome, error){
	"sim-azure":    func(rc runCtx) (*outcome, error) { return runSim(rc, azureTrace, 5) },
	"sim-steady":   func(rc runCtx) (*outcome, error) { return runSim(rc, steadyTrace, 2) },
	"fleet-rounds": runFleet,
	"live-http":    runLive,
}

func main() {
	name := flag.String("workload", "", "workload: sim-azure, sim-steady, fleet-rounds or live-http")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "seconds of work to measure (the work is sized from it)")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	rc := runCtx{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1}
	out, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !rc.trace {
		out.values["peak_rss_mb"] = peakRSSMB()
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	res, bad := assemble(rc, out)
	for _, c := range bad {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, c)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// assemble maps an outcome onto the result object, enforcing the
// catalogue: every end-to-end metric present and nonzero, every value
// finite. It returns the failed checks.
func assemble(rc runCtx, out *outcome) (result, []string) {
	bad := append([]string(nil), out.checks...)
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !rc.trace && (!ok || v == 0) {
			bad = append(bad, fmt.Sprintf("end-to-end metric %s not measured", d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
	}
	var extra []string
	for k := range out.values {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		bad = append(bad, "uncatalogued metric "+k)
	}
	if res.Attempted < 1 {
		bad = append(bad, "no operation attempted")
	}
	res.Correct = len(bad) == 0 && res.Failed == 0
	return res, bad
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// procProbe measures the process-level per-layer counters over an
// interval: CPU, GC cycles, bytes allocated and the most goroutines seen.
type procProbe struct {
	cpu0   float64
	ms0    runtime.MemStats
	stop   chan struct{}
	done   chan struct{}
	maxGor int
}

func startProc() *procProbe {
	p := &procProbe{cpu0: cpuSeconds(), stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.ms0)
	p.maxGor = runtime.NumGoroutine()
	go func() {
		defer close(p.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.maxGor = max(p.maxGor, runtime.NumGoroutine())
			}
		}
	}()
	return p
}

// finish stops the sampler and writes the proc.* metrics.
func (p *procProbe) finish(v map[string]float64) {
	close(p.stop)
	<-p.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["proc.cpu_s"] = cpuSeconds() - p.cpu0
	v["proc.gc_cycles"] = float64(ms.NumGC - p.ms0.NumGC)
	v["proc.alloc_mb"] = float64(ms.TotalAlloc-p.ms0.TotalAlloc) / (1 << 20)
	v["proc.goroutines_max"] = float64(p.maxGor)
}

// tracePath is where a traced run writes its spans, inside the checkout.
func tracePath(rc runCtx) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
}
