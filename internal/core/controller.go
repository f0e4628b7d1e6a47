package core

import "math"

// Planner produces a resource allocation plan for a demand estimate. The
// MILP-based Allocator is Loki's planner; the baselines in
// internal/baselines (InferLine-like hardware scaling, Proteus-like
// pipeline-agnostic accuracy scaling) plug in here too, so every approach
// runs on the identical serving substrate.
type Planner interface {
	Allocate(demand float64) (*Plan, error)
}

// demandBucket quantizes demand geometrically for plan caching: two demands
// share a bucket when they differ by less than roughly ratio-1 (relative).
// A one-tenant MultiController uses the fine legacyBucketRatio; with several
// tenants the arbiter widens the buckets to its adaptation threshold — see
// MultiController.bucketRatio.
func demandBucket(d, ratio float64) int {
	if d < 1 {
		return 0
	}
	return int(math.Round(math.Log(d) / math.Log(ratio)))
}
