package engine

import (
	"loki/internal/core"
	"loki/internal/fault"
	"loki/internal/profiles"
)

// faultWorkers is the per-tenant engine surface a fault mutates. Both
// cluster.Cluster and live.Engine implement it.
type faultWorkers interface {
	SetWorkerDown(phys int)
	SetWorkerUp(phys int)
	SetWorkerSpeedFactor(phys int, factor float64)
}

// faultPool is the fault.Target of a multi-tenant backend. It tracks the
// shared pool's fault state at the physical-server level. Every tenant
// engine models the same physical machines (tenant worker i is the same
// server in each engine), so victim selection happens once here and the same
// physical ids are applied to every tenant's engine — all views of the pool
// agree on which servers are down or slow. Crashes and recoveries then push
// the live per-class counts to every tenant's MetadataStore and to the
// controller.
//
// Selection is deterministic: within a class, the highest-index healthy
// worker fails (or straggles) first, and recovery restores exactly the ids
// the fault returned.
type faultPool struct {
	classes []profiles.Class
	offset  []int // first physical index of each class
	down    []bool
	slowed  []bool

	engines []faultWorkers // one per tenant
	metas   []*core.MetadataStore
	// ctrl re-plans against live capacity when it implements
	// core.CapacityObserver. The backend sets it in Start, before any fault
	// can fire.
	ctrl core.Control
}

// newFaultPool builds the fault state of cfg's pool over the tenant engines
// (indexed like cfg.Tenants) and compiles cfg.Faults against its classes.
func newFaultPool(cfg *MultiConfig, engines []faultWorkers) (*faultPool, []fault.Timed, error) {
	classes := cfg.Classes
	if classes == nil {
		classes = profiles.DefaultClasses(cfg.Servers)
	}
	if len(classes) == 1 && classes[0].Count == 0 {
		// Homogeneous compatibility path: a single class whose Count
		// defers to the configured pool size.
		cl := classes[0]
		cl.Count = cfg.Servers
		classes = []profiles.Class{cl}
	}
	p := &faultPool{classes: classes, engines: engines}
	total := 0
	for _, cl := range classes {
		p.offset = append(p.offset, total)
		total += cl.Count
	}
	p.down = make([]bool, total)
	p.slowed = make([]bool, total)
	for _, t := range cfg.Tenants {
		p.metas = append(p.metas, t.Meta)
	}
	tl, err := fault.Compile(cfg.Faults, p.classIndex)
	if err != nil {
		return nil, nil, err
	}
	return p, tl, nil
}

// classIndex resolves a class name for fault.Compile.
func (p *faultPool) classIndex(name string) (int, bool) {
	for i, cl := range p.classes {
		if cl.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Fail marks up to n healthy workers of the class down (n <= 0: the whole
// class) on every tenant engine and returns their physical ids, highest
// index first.
func (p *faultPool) Fail(class, n int) []int {
	phys := p.pick(class, n, p.down, p.down)
	for _, e := range p.engines {
		for _, i := range phys {
			e.SetWorkerDown(i)
		}
	}
	p.publishLive()
	return phys
}

// Recover brings the given workers back up on every tenant engine.
func (p *faultPool) Recover(phys []int) {
	for _, i := range phys {
		p.down[i] = false
	}
	for _, e := range p.engines {
		for _, i := range phys {
			e.SetWorkerUp(i)
		}
	}
	p.publishLive()
}

// Slow turns up to n healthy, full-speed workers of the class into
// stragglers running at factor of their speed and returns their physical
// ids, highest index first.
func (p *faultPool) Slow(class, n int, factor float64) []int {
	phys := p.pick(class, n, p.slowed, p.down)
	for _, e := range p.engines {
		for _, i := range phys {
			e.SetWorkerSpeedFactor(i, factor)
		}
	}
	return phys
}

// Restore returns the given stragglers to full speed.
func (p *faultPool) Restore(phys []int) {
	for _, i := range phys {
		p.slowed[i] = false
	}
	for _, e := range p.engines {
		for _, i := range phys {
			e.SetWorkerSpeedFactor(i, 1)
		}
	}
}

// pick selects up to n workers of the class that are neither marked nor
// excluded, marking them as it goes; n <= 0 selects every eligible worker.
func (p *faultPool) pick(class, n int, mark, exclude []bool) []int {
	lo := p.offset[class]
	hi := lo + p.classes[class].Count
	if n <= 0 {
		n = hi - lo
	}
	var out []int
	for i := hi - 1; i >= lo && len(out) < n; i-- {
		if mark[i] || exclude[i] {
			continue
		}
		mark[i] = true
		out = append(out, i)
	}
	return out
}

// publishLive pushes the pool's per-class up counts to every tenant's
// MetadataStore (Snapshot reports them; nil once every server is back up)
// and to the controller when it re-plans against live capacity.
func (p *faultPool) publishLive() {
	live := make([]int, len(p.classes))
	anyDown := false
	for c, cl := range p.classes {
		n := cl.Count
		for i := p.offset[c]; i < p.offset[c]+cl.Count; i++ {
			if p.down[i] {
				n--
				anyDown = true
			}
		}
		live[c] = n
	}
	var forMeta []int
	if anyDown {
		forMeta = live
	}
	for _, meta := range p.metas {
		meta.SetLiveClassCounts(forMeta)
	}
	if co, ok := p.ctrl.(core.CapacityObserver); ok {
		co.ObserveCapacity(live)
	}
}

var _ fault.Target = (*faultPool)(nil)
