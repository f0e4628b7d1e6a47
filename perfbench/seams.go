package main

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"

	"loki/internal/core"
)

// Timing decorators for the traced run. Each wraps one exported seam,
// records a span around the call and the work counts the call returns, and
// otherwise forwards verbatim: no configuration changes, no randomness.

// controlSeam decorates the controller the engine steps.
func controlSeam(ctrl *core.MultiController, rec *recorder) core.Control {
	if rec == nil {
		return ctrl
	}
	return &tracedControl{ctrl: ctrl, rec: rec}
}

type tracedControl struct {
	ctrl  *core.MultiController
	rec   *recorder
	round atomic.Int64
}

func (c *tracedControl) Step(force bool) error {
	i := c.rec.begin("core.step", c.rec.root.Load(), c.round.Add(1))
	c.rec.control.Store(i)
	err := c.ctrl.Step(force)
	c.rec.control.Store(-1)
	c.rec.end(i)
	return err
}

func (c *tracedControl) Rebalance() {
	i := c.rec.begin("core.rebalance", c.rec.root.Load(), c.round.Load())
	c.rec.control.Store(i)
	c.ctrl.Rebalance()
	c.rec.control.Store(-1)
	c.rec.end(i)
}

// ObserveCapacity forwards fault-driven capacity updates, so engines that
// look for the hook see the same controller behaviour traced or not.
func (c *tracedControl) ObserveCapacity(live []int) { c.ctrl.ObserveCapacity(live) }

// plannerSeam decorates a tenant's allocator behind the Planner,
// CappedPlanner and GreedyPlanner interfaces the arbiter calls.
func plannerSeam(a *core.Allocator, rec *recorder) core.Planner {
	if rec == nil {
		return a
	}
	return &tracedPlanner{a: a, rec: rec}
}

type tracedPlanner struct {
	a   *core.Allocator
	rec *recorder
}

func (p *tracedPlanner) Allocate(demand float64) (*core.Plan, error) {
	i := p.rec.begin("alloc.allocate", p.rec.control.Load(), 0)
	plan, err := p.a.Allocate(demand)
	p.rec.end(i)
	p.solved(plan)
	return plan, err
}

func (p *tracedPlanner) AllocateCapped(demand float64, caps []int) (*core.Plan, error) {
	i := p.rec.begin("alloc.capped", p.rec.control.Load(), 0)
	plan, err := p.a.AllocateCapped(demand, caps)
	p.rec.end(i)
	p.solved(plan)
	return plan, err
}

func (p *tracedPlanner) GreedyAllocate(demand float64, caps []int) (*core.Plan, bool) {
	i := p.rec.begin("alloc.greedy", p.rec.control.Load(), 0)
	plan, ok := p.a.GreedyAllocate(demand, caps)
	p.rec.end(i)
	if ok {
		p.rec.add("alloc.greedy_hits", 1)
	}
	return plan, ok
}

// solved records the branch-and-bound effort a returned plan reports.
func (p *tracedPlanner) solved(plan *core.Plan) {
	if plan == nil || plan.SolveStats.Nodes == 0 {
		return
	}
	st := plan.SolveStats
	p.rec.add("milp.plans", 1)
	p.rec.add("milp.nodes", float64(st.Nodes))
	p.rec.add("lp.pivots", float64(st.LPIters))
	if st.Proven {
		p.rec.add("milp.proven", 1)
	}
	if st.Truncated {
		p.rec.add("milp.truncated", 1)
	}
}

// publishSeam decorates the tenant's plan publication (engine ApplyPlan
// plus the admission rate refresh).
func publishSeam(publish func(*core.Plan, *core.Routes), rec *recorder) func(*core.Plan, *core.Routes) {
	if rec == nil {
		return publish
	}
	return func(plan *core.Plan, routes *core.Routes) {
		i := rec.begin("core.publish", rec.control.Load(), 0)
		publish(plan, routes)
		rec.end(i)
	}
}

// requestIDHeader carries the generator's request number to the server
// side, joining client round trips to handler spans.
const requestIDHeader = "X-Bench-Request"

// handlerSeam decorates the ingress front door's http.Handler.
func handlerSeam(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			id = -1
		}
		i := rec.begin("ingress.handler", -1, id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, i)))
		rec.end(i)
	})
}

type spanKey struct{}

// submitSeam decorates the ingress server's Submit hook, the call into
// MultiEngine.Submit.
func submitSeam(submit func(context.Context, string) error, rec *recorder) func(context.Context, string) error {
	if rec == nil {
		return submit
	}
	return func(ctx context.Context, p string) error {
		parent, ok := ctx.Value(spanKey{}).(int32)
		if !ok {
			parent = -1
		}
		i := rec.begin("live.submit", parent, 0)
		err := submit(ctx, p)
		rec.end(i)
		return err
	}
}
