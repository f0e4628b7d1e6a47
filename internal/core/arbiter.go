package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"loki/internal/profiles"
	"loki/internal/telemetry"
)

// Control is the engine-facing controller surface: the serving backends
// step the controller they are given through this interface from their
// housekeeping loop. MultiController is the production implementation; a
// single pipeline is a one-tenant MultiController.
type Control interface {
	// Step runs one Resource Manager invocation; force skips the
	// change-threshold check (used on the periodic interval).
	Step(force bool) error
	// Rebalance refreshes routing tables against the standing plan(s)
	// without re-solving any MILP.
	Rebalance()
}

var _ Control = (*MultiController)(nil)

// CappedPlanner is a Planner that can additionally solve under a temporary
// server budget smaller than its configured cluster size. The
// MultiController requires it for every tenant when more than one pipeline
// shares the pool, because contention is resolved by re-solving each
// pipeline's allocation inside its granted partition.
type CappedPlanner interface {
	Planner
	// AllocateCapped is Allocate with the per-class server counts bounded to
	// caps (one entry per hardware class) for this solve only. Homogeneous
	// pools pass a single-element vector.
	AllocateCapped(demand float64, caps []int) (*Plan, error)
}

// Tenant is one pipeline registered with a MultiController: its own
// Metadata Store (demand estimate, profiles, SLO), its own planner, and the
// share of the shared pool it is guaranteed under contention. Publish
// delivers the tenant's plan and routing tables to the serving engine.
type Tenant struct {
	Name string
	Meta *MetadataStore
	// Alloc produces this tenant's allocation plans. With more than one
	// tenant it must implement CappedPlanner.
	Alloc Planner
	// MinShare is the fraction of the pool this tenant is guaranteed when
	// combined demand exceeds the pool. Zero means "unreserved": the
	// unreserved tenants split whatever fraction the explicit shares leave
	// over, equally. Shares only bind under contention — an idle tenant's
	// unneeded guarantee is lent to whoever wants it. On a heterogeneous
	// pool the share applies per hardware class: the floor is a slice of
	// every class, so the guarantee covers fast hardware too.
	MinShare float64
	// RouteHeadroom inflates the demand handed to MostAccurateFirst, so the
	// greedy fill loads every worker to 1/(1+RouteHeadroom) of its profiled
	// capacity instead of exactly 100%. Batch queues at critical load build
	// unbounded waits; this is the slack that keeps queueing delay inside
	// the SLO/2 allowance. Should match the allocator's Headroom.
	RouteHeadroom float64
	// ForecastHorizonSec is how far ahead this tenant's forecaster is
	// consulted when planning (zero means DefaultForecastHorizonSec).
	ForecastHorizonSec float64
	// DemandCapQPS, when positive, caps the demand this tenant plans and
	// routes for. Admission-fronted tenants set it to the largest rate the
	// pool can serve within the SLO (Allocator.MaxCapacity): offered demand
	// beyond it is the admission controller's to shed at the door, not the
	// planner's to absorb with a saturated throughput-optimal plan whose
	// oversized batches miss the SLO by construction. Zero means uncapped —
	// the planner degrades through accuracy scaling into saturation as
	// demand grows, exactly as without admission.
	DemandCapQPS float64
	// Publish delivers a new plan and routing tables to the serving engine.
	Publish func(plan *Plan, routes *Routes)

	// Tier orders degradation across tenants. When the pool cannot cover
	// every tenant's want — or, after an outage, not even every tenant's
	// floor — higher tiers are satisfied first and lower tiers are cut
	// first: floors are granted tier by tier, and leftover capacity flows
	// to the highest unmet tier before any lower one sees a server. Equal
	// tiers everywhere (the default, zero) reproduce the tier-free
	// proportional split bit for bit.
	Tier int

	// CacheDisabled turns the tenant's plan cache off: every solve call
	// reaches the planner. The escape hatch behind the public
	// WithPlannerCache(false) option.
	CacheDisabled bool

	// floorByClass is the resolved per-tenant contention guarantee in whole
	// servers, per hardware class; its total never drops below one replica
	// slot per task.
	floorByClass []int

	cache     map[tenantPlanKey]cachedPlan
	plan      *Plan
	routes    *Routes
	planDmd   float64
	grant     []int // per-class servers currently granted
	allocates int
	truncated int // fresh solves whose branch & bound hit a resource limit

	// Incremental re-solve tracking. lastDesire is the last desire-pass plan
	// with the quantized buckets and pool caps it was solved under;
	// cappedPlan records whether the standing plan came from a capped
	// re-solve inside a grant. A tenant whose planning demand stayed in its
	// bucket with everything else unchanged is "clean" for the round: the
	// arbiter reuses its plans verbatim — bit-identical to what the plan
	// cache would return — without touching the cache or the solver.
	lastDesire     *Plan
	desireBucket   int
	desireFine     int
	lastDesireCaps []int
	cappedPlan     bool
	greedyReplaced int // MILP solves replaced by the greedy pass
}

// cachedPlan is one plan-cache entry plus the fine-granularity demand
// bucket it was solved in, which gates reuse of truncated plans.
type cachedPlan struct {
	plan *Plan
	// fineBucket is demandBucket(demand, legacyBucketRatio) at solve time.
	fineBucket int
}

// maxKeyClasses is how many hardware classes a plan-cache key holds inline.
// Real fleets have a handful of classes; anything larger falls back to an
// allocated string encoding.
const maxKeyClasses = 8

// capsOverflow marks a key whose grant vector spilled into the big field.
const capsOverflow = int8(-2)

// tenantPlanKey caches plans per (quantized demand, grant vector) pair: the
// same demand under a different per-class grant is a different MILP. The
// grant vector is packed into a fixed-size array so building a key on the
// per-round lookup path allocates nothing; n is -1 for uncapped solves.
type tenantPlanKey struct {
	bucket int
	n      int8
	caps   [maxKeyClasses]int32
	big    string
}

// planKey builds the cache key for a (quantized demand, grant vector) pair
// without allocating (except on >maxKeyClasses-class fleets).
func planKey(bucket int, caps []int) tenantPlanKey {
	k := tenantPlanKey{bucket: bucket, n: -1}
	switch {
	case caps == nil:
	case len(caps) <= maxKeyClasses:
		k.n = int8(len(caps))
		for i, n := range caps {
			k.caps[i] = int32(n)
		}
	default:
		k.n = capsOverflow
		k.big = encodeCaps(caps)
	}
	return k
}

// encodeCaps renders a per-class grant vector as a compact string — the
// cache-key overflow encoding for fleets with more classes than the inline
// array holds.
func encodeCaps(caps []int) string {
	if caps == nil {
		return ""
	}
	var b strings.Builder
	for i, n := range caps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}

// legacyBucketRatio is the single-pipeline plan-cache granularity (≈4%).
// It predates the threshold-consistent quantization and is kept for the
// single-tenant paths so their seeded runs stay bit-for-bit reproducible
// against the recorded goldens.
const legacyBucketRatio = 1.04

// solve runs the tenant's planner through its plan cache, quantizing demand
// at the given geometric ratio. A nil caps vector solves at the planner's
// own full cluster size; a non-nil per-class grant vector requires the
// CappedPlanner solve. When CacheDisabled is set every call solves fresh.
// Safe for concurrent use across distinct tenants (each tenant owns its
// cache); callers serialize calls for the same tenant.
func (t *Tenant) solve(demand float64, caps []int, ratio float64) (*Plan, error) {
	if t.cache == nil {
		t.cache = map[tenantPlanKey]cachedPlan{}
	}
	key := planKey(demandBucket(demand, ratio), caps)
	fine := demandBucket(demand, legacyBucketRatio)
	if !t.CacheDisabled {
		if e, ok := t.cache[key]; ok {
			// A plan whose search was truncated by a resource limit is
			// provisional: it is reused only within the fine legacy bucket
			// it was solved in, so wide threshold-quantized buckets never
			// pin a timing-degraded plan across a whole demand band — once
			// demand drifts a few percent the solve is retried (warm-
			// started from the provisional plan, so quality only ratchets
			// up). Deterministically terminated plans get the full bucket.
			if !e.plan.SolveStats.Truncated || e.fineBucket == fine {
				return e.plan, nil
			}
		}
	}
	var plan *Plan
	var err error
	if caps == nil {
		plan, err = t.Alloc.Allocate(demand)
	} else {
		plan, err = t.Alloc.(CappedPlanner).AllocateCapped(demand, caps)
	}
	if err != nil {
		return nil, err
	}
	if !t.CacheDisabled {
		t.cache[key] = cachedPlan{plan: plan, fineBucket: fine}
	}
	t.allocates++
	if plan.SolveStats.Truncated {
		t.truncated++
	}
	return plan, nil
}

// moved reports whether demand deviates from the standing plan's demand by
// at least thr (relative, with a 1-QPS floor on the base).
func (t *Tenant) moved(demand, thr float64) bool {
	base := math.Max(t.planDmd, 1)
	return math.Abs(demand-t.planDmd)/base >= thr
}

// DefaultForecastHorizonSec is the planning horizon when none is configured:
// the Resource Manager's 10-second periodic interval, so a forecast covers
// exactly the window until the next guaranteed re-plan.
const DefaultForecastHorizonSec = 10

// planningDemand is the demand the Resource Manager provisions for: the
// smoothed estimate, raised to the forecaster's horizon prediction when that
// is higher. The asymmetry is deliberate hysteresis — scale-up is proactive
// (the prediction leads the estimate into a spike, so capacity and swap
// pauses are paid during the ramp, not at the crest) while scale-down stays
// reactive (a predicted decay never shrinks capacity below what current
// smoothed demand justifies, so a jittery forecaster cannot thrash the
// cluster). Without a forecaster PredictedDemand returns the estimate and
// this is exactly the reactive demand, bit for bit.
func (t *Tenant) planningDemand() float64 {
	est := t.Meta.DemandEstimate()
	h := t.ForecastHorizonSec
	if h == 0 {
		h = DefaultForecastHorizonSec
	}
	if pred := t.Meta.PredictedDemand(h); pred > est {
		est = pred
	}
	if t.DemandCapQPS > 0 && est > t.DemandCapQPS {
		return t.DemandCapQPS
	}
	return est
}

// MultiController is the multi-tenant Resource Manager: it arbitrates one
// shared server pool across several pipelines. Each adaptation round runs a
// capacity-splitting outer loop around per-tenant MILP solves:
//
//  1. Desire pass — every tenant solves unconstrained (cap = whole pool) for
//     its own demand estimate; the plan's server count is what the tenant
//     "wants".
//  2. If the wants fit the pool, everyone gets their unconstrained plan —
//     this is the common case, and it is what lets a traffic spike in one
//     pipeline steal servers another pipeline is not using.
//  3. Otherwise the pool is contended: every tenant is granted
//     min(want, floor) where floor is its guaranteed share, the leftover is
//     split across still-hungry tenants proportionally to unmet want
//     (largest-remainder rounding), and each constrained tenant re-solves
//     inside its grant — degrading to accuracy scaling or saturation within
//     its partition rather than starving a neighbour.
//
// The sum of grants never exceeds the pool, so the per-tenant engines'
// active workers always fit the shared cluster.
type MultiController struct {
	// ReallocateThreshold is the relative demand change (in any tenant)
	// that triggers re-allocation before the periodic interval elapses.
	// Zero means 0.2.
	ReallocateThreshold float64

	// GreedyReplaceBudget, when positive, lets up to that many MILP solves
	// per round be replaced by the planner's greedy first pass. Eligible are
	// tenants that need a fresh solve (plan-cache miss: a bucket boundary
	// crossed, a changed grant) but whose demand moved less than one cache
	// bucket since their standing plan — the solves most likely to return a
	// near-identical plan at full branch-and-bound price. Replacements are
	// deterministic (registration order) and greedy plans are provisional:
	// they are never cached, and demand drifting a fine bucket re-solves
	// them properly. Zero (the default) keeps every solve on the MILP,
	// bit-identical to the pre-greedy arbiter.
	GreedyReplaceBudget int

	// Sequential forces the per-tenant solves of each allocation round to
	// run one after another instead of fanning out across goroutines. The
	// grant split is deterministic either way (solves are independent and
	// results are assembled in registration order); the escape hatch
	// exists for debugging and for the public WithParallelPlanning(false)
	// option.
	Sequential bool

	// OnGrants, when non-nil, observes every joint allocation: the step
	// counter and the per-tenant server grants (summed across hardware
	// classes), in registration order. It is called with the controller
	// lock held and must not call back in.
	OnGrants func(step int, grants []int)

	mu      sync.Mutex
	pool    int
	classes []profiles.Class // the shared pool's hardware classes
	counts  []int            // resolved per-class server counts
	tenants []*Tenant
	steps   int

	// live, when non-nil, is the per-class count of servers currently up
	// (ObserveCapacity): the capacity the outer loop splits instead of the
	// static counts. capChanged forces the next unforced Step to
	// re-allocate even if no tenant's demand moved, so the arbiter reacts
	// to a crash or recovery within a round instead of waiting out the RM
	// period.
	live       []int
	capChanged bool

	// tel, when non-nil, publishes planner diagnostics (round count, last
	// round's solve time, per-tenant truncated solves and grants) to a
	// telemetry registry — the structured replacement for the LOKI_PROBE
	// print-based diagnostics in internal/experiments.
	tel *plannerTelemetry
}

// plannerTelemetry holds the arbiter's registry handles. Counters are fed
// deltas so the series stay monotone; AtSec carries the planner step counter
// (the arbiter has no engine clock of its own).
type plannerTelemetry struct {
	rounds    *telemetry.Counter
	roundSec  *telemetry.Gauge
	truncated []*telemetry.Counter // per tenant, registration order
	grants    []*telemetry.Gauge   // per tenant, registration order
	lastTrunc []int
}

// CapacityObserver is implemented by controllers that re-plan against live
// (post-fault) capacity. The serving engines push per-class up-server counts
// here whenever a fault event fires or recovers.
type CapacityObserver interface {
	ObserveCapacity(liveByClass []int)
}

// ObserveCapacity installs the pool's current per-class up-server counts
// (clamped to the static class sizes) and schedules a re-allocation on the
// next controller step. Observing full capacity again drops the override, so
// fault-free operation stays on the legacy code path.
func (m *MultiController) ObserveCapacity(liveByClass []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	live := make([]int, len(m.counts))
	same := true
	for c := range live {
		n := m.counts[c]
		if c < len(liveByClass) {
			n = liveByClass[c]
		}
		if n < 0 {
			n = 0
		}
		if n > m.counts[c] {
			n = m.counts[c]
		}
		live[c] = n
		if n != m.counts[c] {
			same = false
		}
	}
	if same {
		m.live = nil
	} else {
		m.live = live
	}
	m.capChanged = true
}

// SetTelemetry points the arbiter at a telemetry registry: every allocation
// round then publishes loki_planner_rounds_total, loki_planner_round_seconds
// (last round's wall-clock solve time), and per-tenant
// loki_planner_truncated_solves_total counters and loki_planner_grant_servers
// gauges. A nil registry turns publication off. Call after every tenant has
// been registered.
func (m *MultiController) SetTelemetry(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.tel = nil
		return
	}
	pt := &plannerTelemetry{
		rounds:    reg.Counter("loki_planner_rounds_total", "Joint allocation rounds executed.", nil),
		roundSec:  reg.Gauge("loki_planner_round_seconds", "Wall-clock duration of the last allocation round.", nil),
		lastTrunc: make([]int, len(m.tenants)),
	}
	for i, t := range m.tenants {
		lbl := telemetry.L("tenant", t.Name)
		pt.truncated = append(pt.truncated,
			reg.Counter("loki_planner_truncated_solves_total", "MILP solves cut short by a resource limit, per tenant.", lbl))
		pt.grants = append(pt.grants,
			reg.Gauge("loki_planner_grant_servers", "Servers granted in the last allocation round, per tenant.", lbl))
		pt.lastTrunc[i] = t.truncated
	}
	m.tel = pt
}

// LiveCounts returns the per-class server counts the arbiter currently plans
// against: the static class sizes, reduced by any observed faults.
func (m *MultiController) LiveCounts() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live != nil {
		return append([]int(nil), m.live...)
	}
	return append([]int(nil), m.counts...)
}

// liveCountsLocked is LiveCounts for callers already holding the lock; it
// returns the internal slice, which callers must not mutate.
func (m *MultiController) liveCountsLocked() []int {
	if m.live != nil {
		return m.live
	}
	return m.counts
}

// bucketRatio is the plan-cache quantization for this controller's tenants.
// With a single tenant it is the fine legacy granularity (bit-compatible
// with the recorded single-pipeline goldens). With several tenants sharing
// the pool it widens to 1 + ReallocateThreshold, making the cache
// consistent with the arbiter's own adaptation threshold: a demand the
// controller would not consider "moved" on an unforced step maps to the
// bucket of the plan already standing, so periodic forced re-allocations
// stop re-solving MILPs for demand wiggles the control policy has declared
// immaterial.
func (m *MultiController) bucketRatio() float64 {
	if len(m.tenants) == 1 {
		return legacyBucketRatio
	}
	thr := m.ReallocateThreshold
	if thr == 0 {
		thr = 0.2
	}
	return 1 + thr
}

// NewMultiController validates the tenant set against the pool and wires
// the arbiter. It fails when the pool cannot hold one replica per task of
// every tenant simultaneously (the joint keep-warm minimum), when explicit
// MinShares oversubscribe the pool, when several tenants share the pool but
// one of their planners cannot solve under a server cap, or when the
// tenants describe the shared pool's hardware classes differently.
func NewMultiController(pool int, tenants []*Tenant) (*MultiController, error) {
	if pool <= 0 {
		return nil, fmt.Errorf("core: multi-tenant pool needs a positive server count, got %d", pool)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("core: no tenants registered")
	}
	// The hardware classes are a property of the one shared pool: every
	// tenant must register the identical class set.
	classes := tenants[0].Meta.Classes()
	for _, t := range tenants[1:] {
		if !profiles.SameClasses(classes, t.Meta.Classes()) {
			return nil, fmt.Errorf("core: tenant %q describes different hardware classes than tenant %q — the shared pool has one class set", t.Name, tenants[0].Name)
		}
	}
	counts := make([]int, len(classes))
	total := 0
	for i, cl := range classes {
		counts[i] = cl.Count
		total += cl.Count
	}
	if len(classes) == 1 && counts[0] == 0 {
		counts[0] = pool
		total = pool
	}
	if total != pool {
		return nil, fmt.Errorf("core: pool size %d disagrees with the hardware classes' total count %d", pool, total)
	}
	reserved := 0.0
	unreserved := 0
	for _, t := range tenants {
		if t.MinShare < 0 || t.MinShare > 1 {
			return nil, fmt.Errorf("core: tenant %q MinShare %.3f outside [0,1]", t.Name, t.MinShare)
		}
		if t.MinShare == 0 {
			unreserved++
		}
		reserved += t.MinShare
		if len(tenants) > 1 {
			if _, ok := t.Alloc.(CappedPlanner); !ok {
				return nil, fmt.Errorf("core: tenant %q planner cannot solve under a server cap; multi-tenant arbitration requires a CappedPlanner", t.Name)
			}
		}
	}
	if reserved > 1+1e-9 {
		return nil, fmt.Errorf("core: MinShares sum to %.3f > 1", reserved)
	}
	implicit := 0.0
	if unreserved > 0 {
		implicit = (1 - reserved) / float64(unreserved)
	}
	minTotal := 0
	floorTotal := make([]int, len(classes))
	for _, t := range tenants {
		share := t.MinShare
		if share == 0 {
			share = implicit
		}
		// WithShare floors apply per class: the guarantee is a slice of
		// every class, so a guaranteed tenant keeps access to fast hardware
		// under contention, not just to some servers somewhere.
		t.floorByClass = make([]int, len(classes))
		floorSum := 0
		for c := range classes {
			t.floorByClass[c] = int(math.Floor(share * float64(counts[c])))
			floorSum += t.floorByClass[c]
		}
		// Keep-warm raise: the floor total must hold one replica per task.
		// Raise class floors where capacity remains, visiting the largest
		// classes first (ties by index): small-share tenants' keep-warm
		// replicas then land on the roomy classes instead of piling onto a
		// scarce fast class and spuriously oversubscribing its floors.
		warm := len(t.Meta.Graph().Tasks)
		order := make([]int, len(classes))
		for c := range order {
			order[c] = c
		}
		sort.SliceStable(order, func(x, y int) bool { return counts[order[x]] > counts[order[y]] })
		for _, c := range order {
			for t.floorByClass[c] < counts[c] && floorSum < warm {
				t.floorByClass[c]++
				floorSum++
			}
		}
		if floorSum < warm {
			return nil, fmt.Errorf("core: tenant %q cannot keep %d tasks warm within the pool", t.Name, warm)
		}
		t.cache = map[tenantPlanKey]cachedPlan{}
		minTotal += warm
		for c := range classes {
			floorTotal[c] += t.floorByClass[c]
		}
	}
	if minTotal > pool {
		return nil, fmt.Errorf("core: pool of %d servers cannot keep %d tenant tasks warm (one replica each)", pool, minTotal)
	}
	// Floors are raised to each tenant's keep-warm task count, which can
	// push their sum past a class even when the raw shares fit; splitPool
	// grants up to every floor under contention, so an oversubscribed floor
	// set would break the Σ grants ≤ count invariant.
	for c := range classes {
		if floorTotal[c] > counts[c] {
			return nil, fmt.Errorf("core: contention floors need %d servers of class %q (shares plus keep-warm minimums) but it holds %d", floorTotal[c], classes[c].Name, counts[c])
		}
	}
	return &MultiController{pool: pool, classes: classes, counts: counts, tenants: tenants}, nil
}

// Pool returns the shared pool size.
func (m *MultiController) Pool() int { return m.pool }

// Tenants returns the number of registered tenants.
func (m *MultiController) Tenants() int { return len(m.tenants) }

// Step runs one joint Resource Manager invocation across all tenants:
// estimate each tenant's demand, rerun the capacity-splitting outer loop if
// forced or any tenant's demand moved past the threshold, and publish every
// tenant's plan and routing tables.
func (m *MultiController) Step(force bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps++

	// Per-tenant planning demand: the smoothed estimate, or the forecaster's
	// envelope when it predicts higher — so one tenant's forecasted spike
	// raises its want in the desire pass and claims idle neighbour servers
	// before the spike arrives.
	demands := make([]float64, len(m.tenants))
	for i, t := range m.tenants {
		demands[i] = t.planningDemand()
	}

	thr := m.ReallocateThreshold
	if thr == 0 {
		thr = 0.2
	}
	if !force {
		// A capacity change (crash, outage, recovery) counts as movement:
		// the arbiter re-plans against the live pool within a round.
		moved := m.capChanged
		for i, t := range m.tenants {
			if moved {
				break
			}
			if t.plan == nil || t.moved(demands[i], thr) {
				moved = true
			}
		}
		if !moved {
			return nil
		}
	}

	if err := m.allocateLocked(demands); err != nil {
		return err
	}
	m.capChanged = false
	for i, t := range m.tenants {
		t.planDmd = demands[i]
		t.publish(demands[i])
	}
	return nil
}

// allocateLocked is the capacity-splitting outer loop over per-class grant
// vectors. Both solve passes fan out across tenants — each tenant's MILP is
// independent of the others' — while the grant split between them stays
// deterministic: per-class wants are gathered at a barrier, each class is
// split with the same largest-remainder arithmetic as ever, idle capacity in
// uncontended classes is lent to the constrained tenants (so a pipeline cut
// on fast hardware may substitute slow hardware in its capped re-solve), and
// results are assembled in registration order.
func (m *MultiController) allocateLocked(demands []float64) error {
	var roundStart time.Time
	if m.tel != nil {
		roundStart = time.Now()
	}
	ratio := m.bucketRatio()
	counts := m.liveCountsLocked()
	nc := len(counts)

	// Desire pass: unconstrained solves at the planner's full cluster size
	// (= the whole pool). While a fault holds servers down the pass is
	// capped at the live per-class counts instead: a desire solved against
	// the healthy pool shape would keep wanting the dead class (leaving the
	// surviving classes formally uncontended and the tier ordering idle)
	// where the same demand re-aimed at the survivors makes the real
	// contention — and the tier-ordered split of it — visible. With every
	// server up desireCaps stays nil and the pass is bit-identical to the
	// fault-free system.
	var desireCaps []int
	if m.live != nil {
		desireCaps = counts
	}

	// Dirty tracking: a tenant re-solves only when something that feeds its
	// plan actually moved — the quantized demand bucket (the fine legacy
	// bucket too for provisional truncated/greedy plans, mirroring the plan
	// cache's reuse gate), the pool caps the desire pass runs under, or a
	// disabled cache. Clean tenants reuse last round's plans verbatim, which
	// is bit-identical to the cache hit the solve would have returned.
	dirty := make([]bool, len(m.tenants))
	for i, t := range m.tenants {
		provisional := t.lastDesire != nil &&
			(t.lastDesire.SolveStats.Truncated || t.lastDesire.SolveStats.Greedy)
		dirty[i] = t.CacheDisabled || t.lastDesire == nil ||
			!equalInts(t.lastDesireCaps, desireCaps) ||
			demandBucket(demands[i], ratio) != t.desireBucket ||
			(provisional && demandBucket(demands[i], legacyBucketRatio) != t.desireFine)
	}
	// Greedy-replace pass, decided before the fan-out so the budget is spent
	// in registration order: dirty tenants whose demand moved less than one
	// cache bucket get the greedy first pass instead of a full MILP solve.
	useGreedy := make([]bool, len(m.tenants))
	if budget := m.GreedyReplaceBudget; budget > 0 {
		width := ratio - 1
		for i, t := range m.tenants {
			if budget == 0 {
				break
			}
			if !dirty[i] || t.plan == nil || t.moved(demands[i], width) {
				continue
			}
			if _, ok := t.Alloc.(GreedyPlanner); !ok {
				continue
			}
			useGreedy[i] = true
			budget--
		}
	}

	wants := make([][]int, len(m.tenants))
	plans := make([]*Plan, len(m.tenants))
	err := m.forEachTenant(func(i int, t *Tenant) error {
		if desireCaps != nil && sumInts(desireCaps) < len(t.Meta.Graph().Tasks) {
			// The whole live pool is below this tenant's keep-warm
			// minimum — no feasible plan exists for anyone; serve an
			// idle plan until servers recover.
			plans[i] = &Plan{}
			return nil
		}
		if !dirty[i] {
			plans[i] = t.lastDesire
			return nil
		}
		var plan *Plan
		if useGreedy[i] {
			if gp, ok := t.Alloc.(GreedyPlanner).GreedyAllocate(demands[i], desireCaps); ok {
				plan = gp
				t.greedyReplaced++
			}
		}
		if plan == nil {
			var err error
			plan, err = t.solve(demands[i], desireCaps, ratio)
			if err != nil {
				return fmt.Errorf("core: tenant %q allocation: %w", t.Name, err)
			}
		}
		plans[i] = plan
		t.lastDesire = plan
		t.desireBucket = demandBucket(demands[i], ratio)
		t.desireFine = demandBucket(demands[i], legacyBucketRatio)
		t.lastDesireCaps = copyOrNil(desireCaps)
		return nil
	})
	if err != nil {
		return err
	}
	for i, plan := range plans {
		wants[i] = m.classWants(plan)
	}
	contended := false
	for c := 0; c < nc; c++ {
		total := 0
		for i := range wants {
			total += wants[i][c]
		}
		if total > counts[c] {
			contended = true
		}
	}

	grants := make([][]int, len(m.tenants))
	for i := range grants {
		grants[i] = append([]int(nil), wants[i]...)
	}
	constrained := make([]bool, len(m.tenants))
	if contended {
		// Split every class across tenants: min(want, floor) plus a
		// largest-remainder share of the class's leftover. When tenants
		// carry distinct tiers the split instead runs on tenant totals with
		// strict tier precedence and packs classes contiguously, so a
		// squeezed tier is left with one plannable block instead of
		// fragments of every class.
		tiers := make([]int, len(m.tenants))
		distinct := false
		for i, t := range m.tenants {
			tiers[i] = t.Tier
			if t.Tier != m.tenants[0].Tier {
				distinct = true
			}
		}
		if distinct {
			floors := make([][]int, len(m.tenants))
			for i, t := range m.tenants {
				floors[i] = t.floorByClass
			}
			grants = packTiered(counts, wants, floors, tiers)
		} else {
			for c := 0; c < nc; c++ {
				wantsC := make([]int, len(m.tenants))
				floorsC := make([]int, len(m.tenants))
				for i, t := range m.tenants {
					wantsC[i] = wants[i][c]
					floorsC[i] = t.floorByClass[c]
				}
				grantsC := splitPoolTiered(counts[c], wantsC, floorsC, tiers)
				for i := range m.tenants {
					grants[i][c] = grantsC[i]
				}
			}
		}
		for i := range m.tenants {
			for c := 0; c < nc; c++ {
				if grants[i][c] < wants[i][c] {
					constrained[i] = true
				}
			}
		}
		m.lendSlack(counts, grants, constrained)
		m.ensureWarm(counts, grants, wants, constrained)
		err := m.forEachTenant(func(i int, t *Tenant) error {
			if !constrained[i] {
				return nil
			}
			// Clean tenant, same grant as last round, standing plan already
			// solved inside it: reuse verbatim. (The cache would return the
			// identical plan; this skips the lookups and the dropFragment
			// retry.)
			if !dirty[i] && t.cappedPlan && t.plan != nil && equalInts(grants[i], t.grant) {
				plans[i] = t.plan
				return nil
			}
			if sumInts(grants[i]) < len(t.Meta.Graph().Tasks) {
				// An outage can shrink the pool below the joint keep-warm
				// minimum; no feasible plan fits this grant. Publish an
				// idle plan rather than keeping a stale one: a stale plan
				// keeps routing onto capacity that is dead or granted to
				// higher tiers, so its queries drop at dark queues, while
				// an idle plan drives the tenant's admission rate to zero
				// and its traffic sheds gracefully (429 + Retry-After)
				// until recovery re-plans it.
				plans[i] = &Plan{}
				return nil
			}
			var plan *Plan
			if useGreedy[i] {
				if gp, ok := t.Alloc.(GreedyPlanner).GreedyAllocate(demands[i], grants[i]); ok {
					plan = gp
					t.greedyReplaced++
				}
			}
			if plan == nil {
				var err error
				plan, err = t.solve(demands[i], grants[i], ratio)
				if err != nil {
					return fmt.Errorf("core: tenant %q capped allocation (%v servers): %w", t.Name, grants[i], err)
				}
				if distinct {
					plan = t.dropFragment(plan, demands[i], grants[i], ratio)
				}
			}
			plans[i] = plan
			return nil
		})
		if err != nil {
			return err
		}
	}
	for i, t := range m.tenants {
		t.plan = plans[i]
		t.grant = grants[i]
		t.cappedPlan = constrained[i]
	}
	if m.OnGrants != nil {
		totals := make([]int, len(m.tenants))
		for i := range m.tenants {
			totals[i] = sumInts(grants[i])
		}
		m.OnGrants(m.steps, totals)
	}
	if m.tel != nil {
		// AtSec carries the planner step counter; the round-duration gauge is
		// the only wall-clock (nondeterministic) value published here.
		at := float64(m.steps)
		m.tel.rounds.Add(at, 1)
		m.tel.roundSec.Set(at, time.Since(roundStart).Seconds())
		for i, t := range m.tenants {
			if d := t.truncated - m.tel.lastTrunc[i]; d > 0 {
				m.tel.truncated[i].Add(at, float64(d))
				m.tel.lastTrunc[i] = t.truncated
			}
			m.tel.grants[i].Set(at, float64(sumInts(grants[i])))
		}
	}
	return nil
}

// classWants returns a plan's per-class server demand as a vector sized to
// the pool's class set, falling back to summing assignments for planners
// that do not fill ServersByClass (hand-built or baseline plans on the
// homogeneous path).
func (m *MultiController) classWants(plan *Plan) []int {
	out := make([]int, len(m.counts))
	if len(plan.ServersByClass) == len(out) {
		copy(out, plan.ServersByClass)
		return out
	}
	for _, a := range plan.Assignments {
		c := a.Class
		if c < 0 || c >= len(out) {
			c = 0
		}
		out[c] += a.Replicas
	}
	return out
}

// lendSlack distributes every class's unallocated servers across the
// constrained tenants (largest remainder of an equal split, ties broken by
// registration order) and then, as a last resort, raises any constrained
// tenant whose total grant dropped below its keep-warm minimum from whatever
// class capacity remains. Idle hardware is never stranded while some tenant
// is being cut — the vector analogue of "an idle tenant's guarantee is lent
// to whoever wants it".
func (m *MultiController) lendSlack(counts []int, grants [][]int, constrained []bool) {
	nHungry := 0
	for _, c := range constrained {
		if c {
			nHungry++
		}
	}
	if nHungry == 0 {
		return
	}
	for c := range counts {
		free := counts[c]
		for i := range grants {
			free -= grants[i][c]
		}
		if free <= 0 {
			continue
		}
		each := free / nHungry
		rem := free - each*nHungry
		for i := range grants {
			if !constrained[i] {
				continue
			}
			grants[i][c] += each
			if rem > 0 {
				grants[i][c]++
				rem--
			}
		}
	}
}

// ensureWarm guarantees every tenant's grant vector can hold one replica per
// task, which the capped solve requires. A per-class split can land below
// that even though the floors cover it: min(want, floor) takes nothing from
// classes the tenant did not ask for, so a tenant that concentrated its want
// on a contended class may be cut there while its floor slice of the other
// classes sits granted to neighbours. The repair claims capacity — free
// servers first, then servers granted to other tenants *above their own
// floors* (largest excess first, lowest index on ties) — only in classes
// where the tenant is still below its floor, and never pushes a donor below
// its floors or its own keep-warm minimum; the floor validation in
// NewMultiController guarantees that much capacity exists. Shrunk donors are
// marked constrained so they re-solve inside their reduced vectors.
func (m *MultiController) ensureWarm(counts []int, grants [][]int, wants [][]int, constrained []bool) {
	warms := make([]int, len(m.tenants))
	for i, t := range m.tenants {
		warms[i] = len(t.Meta.Graph().Tasks)
	}
	for i, t := range m.tenants {
		need := warms[i] - sumInts(grants[i])
		if need <= 0 {
			continue
		}
		constrained[i] = true
		for c := 0; c < len(counts) && need > 0; c++ {
			claim := t.floorByClass[c] - grants[i][c]
			if claim > need {
				claim = need
			}
			if claim <= 0 {
				continue
			}
			free := counts[c]
			for j := range grants {
				free -= grants[j][c]
			}
			if free > claim {
				free = claim
			}
			if free > 0 {
				grants[i][c] += free
				need -= free
				claim -= free
			}
			for claim > 0 {
				donor, excess := -1, 0
				for j := range m.tenants {
					if j == i {
						continue
					}
					e := grants[j][c] - m.tenants[j].floorByClass[c]
					if spare := sumInts(grants[j]) - warms[j]; spare < e {
						e = spare
					}
					if e > excess {
						donor, excess = j, e
					}
				}
				if donor < 0 {
					break
				}
				d := excess
				if d > claim {
					d = claim
				}
				grants[donor][c] -= d
				grants[i][c] += d
				need -= d
				claim -= d
				if grants[donor][c] < wants[donor][c] {
					constrained[donor] = true
				}
			}
		}
	}
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// equalInts reports element-wise equality, distinguishing nil from non-nil
// (a nil caps vector means an uncapped solve, not a zero-length one).
func equalInts(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// copyOrNil clones a slice, preserving nil.
func copyOrNil(xs []int) []int {
	if xs == nil {
		return nil
	}
	return append([]int(nil), xs...)
}

// forEachTenant runs fn once per tenant. Unless Sequential is set (or the
// host has a single execution slot, where fanning out only adds scheduling
// noise to wall-clock-budgeted solves), calls run concurrently on bounded
// goroutines — one in flight per tenant, at most GOMAXPROCS at once. fn
// receives a distinct tenant per call, so per-tenant state (plan cache,
// allocator) needs no extra locking. The first error in registration order
// wins.
func (m *MultiController) forEachTenant(fn func(i int, t *Tenant) error) error {
	limit := runtime.GOMAXPROCS(0)
	if m.Sequential || limit <= 1 || len(m.tenants) <= 1 {
		for i, t := range m.tenants {
			if err := fn(i, t); err != nil {
				return err
			}
		}
		return nil
	}
	if limit > len(m.tenants) {
		limit = len(m.tenants)
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, len(m.tenants))
	var wg sync.WaitGroup
	for i, t := range m.tenants {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t *Tenant) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i, t)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitPool splits one capacity pool (the whole cluster, or one hardware
// class of it): each tenant gets min(want, floor), then the leftover is
// split across still-hungry tenants proportionally to unmet want, with
// largest-remainder rounding (ties broken by registration order, for
// determinism).
func splitPool(pool int, wants, floors []int) []int {
	grants := make([]int, len(wants))
	left := pool
	unmetSum := 0
	for i := range wants {
		g := wants[i]
		if g > floors[i] {
			g = floors[i]
		}
		grants[i] = g
		left -= g
		unmetSum += wants[i] - g
	}
	if left <= 0 || unmetSum == 0 {
		return grants
	}
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, 0, len(wants))
	used := 0
	for i := range wants {
		unmet := wants[i] - grants[i]
		if unmet <= 0 {
			continue
		}
		quota := float64(left) * float64(unmet) / float64(unmetSum)
		whole := int(math.Floor(quota))
		if whole > unmet {
			whole = unmet
		}
		grants[i] += whole
		used += whole
		fracs = append(fracs, frac{idx: i, rem: quota - float64(whole)})
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for _, f := range fracs {
		if used >= left {
			break
		}
		if grants[f.idx] < wants[f.idx] {
			grants[f.idx]++
			used++
		}
	}
	return grants
}

// splitPoolTiered is splitPool with tier-ordered degradation. When every
// tenant carries the same tier and the floors fit the pool (the fault-free
// default), it delegates to splitPool so existing runs stay bit-identical.
// Otherwise tiers take strict precedence: a higher tier's full want is
// served before any lower tier sees a server, so under a shortage the
// damage concentrates on the lowest tiers — they shed at the front door
// while the high tiers keep their SLOs. Peers within one tier share by the
// same floor-then-largest-remainder arithmetic as splitPool; when what
// remains for a tier cannot even cover its floors, the remainder is
// apportioned across those floors.
func splitPoolTiered(pool int, wants, floors, tiers []int) []int {
	uniform := true
	for _, t := range tiers {
		if t != tiers[0] {
			uniform = false
			break
		}
	}
	fit := 0
	for i := range wants {
		f := wants[i]
		if f > floors[i] {
			f = floors[i]
		}
		fit += f
	}
	if uniform && fit <= pool {
		return splitPool(pool, wants, floors)
	}

	levels := append([]int(nil), tiers...)
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	levels = dedupInts(levels)

	grants := make([]int, len(wants))
	left := pool
	for _, lv := range levels {
		if left <= 0 {
			break
		}
		var idxs, wantsL, floorsL []int
		for i := range wants {
			if tiers[i] != lv {
				continue
			}
			idxs = append(idxs, i)
			wantsL = append(wantsL, wants[i])
			floorsL = append(floorsL, floors[i])
		}
		var grantsL []int
		switch {
		case sumInts(wantsL) <= left:
			grantsL = wantsL
		default:
			fitL := 0
			mins := make([]int, len(wantsL))
			for k := range wantsL {
				mins[k] = wantsL[k]
				if mins[k] > floorsL[k] {
					mins[k] = floorsL[k]
				}
				fitL += mins[k]
			}
			if fitL >= left {
				grantsL = apportion(left, mins)
			} else {
				grantsL = splitPool(left, wantsL, floorsL)
			}
		}
		for k, g := range grantsL {
			grants[idxs[k]] = g
		}
		left -= sumInts(grantsL)
	}
	return grants
}

// dropFragment retries an under-serving capped solve without the grant's
// smallest class. The branch-and-bound planner truncates on mixed caps like
// [1,6] — a sliver of one class next to a block of another — and the
// truncated search can land on a plan worth half the rate of simply planning
// the block alone ([0,6]). When the solve left demand unserved and the grant
// spans several classes, one extra (cached) solve with the smallest class
// zeroed checks that; the better plan wins, and the orphaned sliver stays
// granted but idle.
func (t *Tenant) dropFragment(plan *Plan, demand float64, caps []int, ratio float64) *Plan {
	if plan.ServedFraction >= 0.999 {
		return plan
	}
	small, nonzero := -1, 0
	for c, n := range caps {
		if n <= 0 {
			continue
		}
		nonzero++
		if small < 0 || n < caps[small] {
			small = c
		}
	}
	if nonzero < 2 {
		return plan
	}
	alt := append([]int(nil), caps...)
	alt[small] = 0
	altPlan, err := t.solve(demand, alt, ratio)
	if err != nil || altPlan.ServedFraction <= plan.ServedFraction {
		return plan
	}
	return altPlan
}

// packTiered grants servers across tenants AND classes when tiers are
// distinct. Per-class tiered splits can strand a low tier with small slivers
// of several classes, and the planner cannot compose a useful plan out of
// fragments (a grant of 5+2 across two classes plans barely half the rate of
// 7 in one class). So the strict split runs on tenant totals — a higher
// tier's whole demand is served before a lower tier sees a server — and the
// totals are then laid out contiguously along the class list, largest live
// class first: the top tier fills from the biggest (most plannable) class,
// each following tenant starts where the previous one stopped, and at most
// one class boundary lands inside any tenant's grant.
func packTiered(counts []int, wants [][]int, floors [][]int, tiers []int) [][]int {
	totalWants := make([]int, len(wants))
	totalFloors := make([]int, len(wants))
	for i := range wants {
		totalWants[i] = sumInts(wants[i])
		totalFloors[i] = sumInts(floors[i])
	}
	totals := splitPoolTiered(sumInts(counts), totalWants, totalFloors, tiers)

	order := make([]int, len(counts))
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })

	levels := append([]int(nil), tiers...)
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	levels = dedupInts(levels)

	remaining := append([]int(nil), counts...)
	grants := make([][]int, len(wants))
	for i := range grants {
		grants[i] = make([]int, len(counts))
	}
	for _, lv := range levels {
		for i := range wants {
			if tiers[i] != lv {
				continue
			}
			need := totals[i]
			for _, c := range order {
				if need <= 0 {
					break
				}
				take := min(need, remaining[c])
				grants[i][c] = take
				remaining[c] -= take
				need -= take
			}
		}
	}
	return grants
}

// apportion distributes up to total units across recipients proportionally
// to their weights (never exceeding a recipient's weight), with the same
// largest-remainder rounding and tie-breaking as splitPool.
func apportion(total int, weights []int) []int {
	out := make([]int, len(weights))
	sumW := sumInts(weights)
	if sumW == 0 || total <= 0 {
		return out
	}
	if total >= sumW {
		copy(out, weights)
		return out
	}
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, 0, len(weights))
	used := 0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		quota := float64(total) * float64(w) / float64(sumW)
		whole := int(math.Floor(quota))
		if whole > w {
			whole = w
		}
		out[i] = whole
		used += whole
		fracs = append(fracs, frac{idx: i, rem: quota - float64(whole)})
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for _, f := range fracs {
		if used >= total {
			break
		}
		if out[f.idx] < weights[f.idx] {
			out[f.idx]++
			used++
		}
	}
	return out
}

// dedupInts collapses runs of equal values in a sorted slice.
func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// publish rebuilds one tenant's routing tables for the given demand and
// pushes plan+routes to its engine. Callers hold the controller lock.
func (t *Tenant) publish(demand float64) {
	specs := ExpandPlan(t.plan)
	t.routes = MostAccurateFirst(t.Meta.Graph(), specs, demand*(1+t.RouteHeadroom), t.Meta.MultFactor)
	if t.Publish != nil {
		t.Publish(t.plan, t.routes)
	}
}

// Rebalance reruns MostAccurateFirst for every tenant against its standing
// plan with a fresh planning demand (the Load Balancer's
// between-allocations refresh).
func (m *MultiController) Rebalance() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.tenants {
		if t.plan == nil {
			continue
		}
		t.publish(t.planningDemand())
	}
}

// PlanOf returns tenant i's standing plan (nil before the first Step).
func (m *MultiController) PlanOf(i int) *Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[i].plan
}

// RoutesOf returns tenant i's standing routing tables (nil before the first
// Step).
func (m *MultiController) RoutesOf(i int) *Routes {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[i].routes
}

// Grants returns the servers currently granted to each tenant (summed over
// hardware classes), in registration order. The sum never exceeds the pool.
func (m *MultiController) Grants() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = sumInts(t.grant)
	}
	return out
}

// ClassGrants returns each tenant's standing grant vector (servers per
// hardware class, in class order), in registration order. Per class, the
// column sums never exceed that class's server count.
func (m *MultiController) ClassGrants() [][]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]int, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = append([]int(nil), t.grant...)
	}
	return out
}

// Classes returns the shared pool's hardware classes with resolved counts.
func (m *MultiController) Classes() []profiles.Class {
	out := append([]profiles.Class(nil), m.classes...)
	for i := range out {
		out[i].Count = m.counts[i]
	}
	return out
}

// Floors returns each tenant's resolved contention guarantee in servers
// (summed over hardware classes).
func (m *MultiController) Floors() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = sumInts(t.floorByClass)
	}
	return out
}

// Allocates returns the total number of MILP invocations (plan-cache
// misses) across all tenants.
func (m *MultiController) Allocates() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.tenants {
		n += t.allocates
	}
	return n
}

// TruncatedSolves returns the total number of fresh MILP solves whose branch
// & bound search was cut short by a resource limit, across all tenants — the
// same signal the loki_planner_truncated_solves_total telemetry counter
// publishes per tenant.
func (m *MultiController) TruncatedSolves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.tenants {
		n += t.truncated
	}
	return n
}

// GreedyReplaced returns the total number of MILP solves replaced by the
// greedy first pass under the GreedyReplaceBudget, across all tenants.
func (m *MultiController) GreedyReplaced() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.tenants {
		n += t.greedyReplaced
	}
	return n
}

// AllocatesOf returns tenant i's MILP invocations.
func (m *MultiController) AllocatesOf(i int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[i].allocates
}
