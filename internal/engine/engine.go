// Package engine defines the serving-backend abstraction behind the public
// loki.System API. A backend hosts the worker pool for one or more pipeline
// tenants: it accepts plan publications from the core.MultiController,
// admits requests (one at a time via Submit or as whole arrival processes via
// FeedAll), and runs the per-second housekeeping loop (demand reports,
// heartbeats, controller steps) that the paper's Controller relies on. A
// single pipeline is a one-tenant backend. Two implementations exist: the
// discrete-event simulator (internal/sim + internal/cluster, virtual time)
// and the wall-clock prototype (internal/live, real goroutine workers).
// Everything above this interface — loki.System, loki.Serve,
// internal/experiments.Run — is backend-agnostic.
package engine

import "errors"

// Stats are cumulative request totals of a backend. Injected counts root
// requests admitted; every injected request eventually lands in exactly one
// of Completed or Dropped. Shed counts requests refused by an admission
// controller before injection — they are not part of Injected (offered load
// is Injected + Shed) and stay zero when no controller is armed.
type Stats struct {
	Injected  int64
	Completed int64
	Dropped   int64
	Rerouted  int64
	Swaps     int64
	Shed      int64
}

// Lifecycle errors shared by both backends.
var (
	ErrNotStarted = errors.New("engine: not started")
	ErrStopped    = errors.New("engine: stopped")
)

// Kind selects a backend implementation.
type Kind int

const (
	KindSimulated Kind = iota
	KindWallclock
)
