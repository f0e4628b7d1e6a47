package cluster

import (
	"math/rand"
	"testing"

	"loki/internal/policy"
	"loki/internal/trace"
)

// poolLive checks that every pooled object is back on its free list exactly
// once: none leaked (live count 0) and none freed twice (no duplicates).
func poolLive[T any](t *testing.T, name string, p *pool[T]) {
	t.Helper()
	seen := make(map[*T]bool, len(p.free))
	for _, x := range p.free {
		if seen[x] {
			t.Fatalf("%s freed twice", name)
		}
		seen[x] = true
	}
	if live := p.made - len(p.free); live != 0 {
		t.Fatalf("%s pool: %d made, %d free, %d still live after drain", name, p.made, len(p.free), live)
	}
}

func checkPoolsDrained(t *testing.T, c *Cluster) {
	t.Helper()
	if c.Inflight() != 0 {
		t.Fatalf("%d requests still in flight after drain", c.Inflight())
	}
	if c.TotalInjected != c.TotalCompleted+c.TotalDropped {
		t.Fatalf("conservation broken: injected %d != completed %d + dropped %d",
			c.TotalInjected, c.TotalCompleted, c.TotalDropped)
	}
	poolLive(t, "subrequest", &c.subs)
	poolLive(t, "root", &c.roots)
	poolLive(t, "batch", &c.batches)
}

// A worker crashes mid-batch, recovers, and is re-claimed by a plan; a new
// batch starts on it before the stale completion fires. The stale batch must
// drop its requests, the new one must complete, and every pooled object
// must come back exactly once.
func TestPoolsSurviveCrashMidBatch(t *testing.T) {
	r := newRig(t, 2, policy.NoDrop{})
	r.apply(plan2(1), 100) // one worker per task
	inject := func() { r.cl.InjectRequest() }
	front := func() int { // the physical worker serving task 0
		for _, w := range r.cl.workers {
			if w.spec != nil && w.spec.Task == 0 {
				return w.phys
			}
		}
		t.Fatal("no task-0 worker")
		return -1
	}
	for i := 0; i < 4; i++ {
		r.eng.At(0, inject) // arrive at 1 ms; batch of 4 runs until ~26 ms
	}
	var phys int
	r.eng.At(0.005, func() {
		phys = front()
		if !r.cl.workers[phys].busy {
			t.Fatal("front worker idle at crash time")
		}
		r.cl.SetWorkerDown(phys)
		r.cl.SetWorkerUp(phys)
		r.apply(plan2(1), 100)
		if front() != phys {
			t.Fatal("recovered worker not re-claimed")
		}
	})
	for i := 0; i < 4; i++ {
		r.eng.At(0.006, inject) // a new batch on the recovered worker
	}
	r.eng.At(0.010, func() {
		if !r.cl.workers[phys].busy {
			t.Fatal("no new batch on the recovered worker before the stale completion")
		}
	})
	r.eng.RunAll()

	if r.cl.DropsFault != 4 {
		t.Fatalf("fault drops = %d, want the 4 requests of the crashed batch", r.cl.DropsFault)
	}
	if r.cl.TotalCompleted != 4 {
		t.Fatalf("completed = %d, want the 4 requests of the new batch", r.cl.TotalCompleted)
	}
	checkPoolsDrained(t, r.cl)
}

// Repeated crashes and recoveries under Poisson load, with plans re-applied
// after each, leave no pooled object live and none freed twice.
func TestPoolsSurviveRepeatedFaults(t *testing.T) {
	r := newRig(t, 8, policy.Opportunistic{})
	r.apply(plan2(3), 400)
	r.injectPoisson(t, 400, 10, 5)
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 40; k++ {
		at := 0.25 * float64(k+1)
		phys := rng.Intn(8)
		r.eng.At(at, func() { r.cl.SetWorkerDown(phys) })
		r.eng.At(at+0.003, func() {
			r.cl.SetWorkerUp(phys)
			r.apply(plan2(3), 400)
		})
	}
	r.eng.RunAll()
	if r.cl.DropsFault == 0 || r.cl.TotalCompleted == 0 {
		t.Fatalf("fault drops %d, completed %d: the faults never met in-flight work", r.cl.DropsFault, r.cl.TotalCompleted)
	}
	checkPoolsDrained(t, r.cl)
}

// TestRequestPathAllocationCeiling pins the request path allocation-free at
// steady state: under a fixed plan with telemetry and tracing off, injecting
// and serving requests allocates at most 0.05 objects per request once the
// free lists, queues and event heap have reached their working size.
func TestRequestPathAllocationCeiling(t *testing.T) {
	r := newRig(t, 8, policy.Opportunistic{})
	r.apply(plan2(3), 400)
	const n = 2000
	tr := &trace.Trace{Interval: n / 400.0, QPS: []float64{400}}
	offsets := tr.Arrivals(rand.New(rand.NewSource(3)))
	inject := func() { r.cl.InjectRequest() }
	serve := func() {
		base := r.eng.Now()
		for _, off := range offsets {
			r.eng.At(base+off, inject)
		}
		r.eng.RunAll()
	}
	serve() // warm-up: grows the pools and buffers to their working size
	allocs := testing.AllocsPerRun(10, serve)
	if r.cl.TotalCompleted == 0 {
		t.Fatal("nothing completed")
	}
	if perReq := allocs / float64(len(offsets)); perReq > 0.05 {
		t.Fatalf("%.0f allocations per %d requests = %.3f per request, want <= 0.05", allocs, len(offsets), perReq)
	}
}
