// Package sim is a minimal discrete-event simulation engine: a virtual
// clock and a binary-heap event queue. It is the substrate under
// internal/cluster, standing in for the paper's real 20-GPU testbed — the
// paper itself runs its parameter sweeps on a discrete-event simulator
// extended from Proteus (§6.1), so this substrate reproduces the published
// methodology, not just approximates it.
package sim

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// before is the heap order. (at, seq) is a strict total order, so events
// pop in the same sequence from any correct heap.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine runs events in virtual-time order. Time is in seconds. The zero
// value is ready to use.
//
// The queue is a binary min-heap of event values: scheduling and popping
// box nothing, so a steady-state run allocates only when the heap's backing
// array grows past its previous peak.
type Engine struct {
	h       []event
	now     float64
	seq     uint64
	stopped bool
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute virtual time t. Scheduling in the past is a
// programming error and panics, because it would silently corrupt causality.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.h = append(e.h, event{at: t, seq: e.seq, fn: fn})
	e.up(len(e.h) - 1)
}

// After schedules fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue empties or the next event
// lies strictly beyond until. The clock finishes at min(until, last event
// time); it never runs backwards.
func (e *Engine) Run(until float64) {
	e.stopped = false
	for len(e.h) > 0 && !e.stopped {
		if e.h[0].at > until {
			break
		}
		e.step()
	}
	if until > e.now {
		e.now = until
	}
}

// RunAll executes every pending event (including ones scheduled while
// running) until the queue is empty.
func (e *Engine) RunAll() {
	e.stopped = false
	for len(e.h) > 0 && !e.stopped {
		e.step()
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.h) }

// step pops the earliest event, advances the clock to it, and runs it.
func (e *Engine) step() {
	h := e.h
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the callback reference
	e.h = h[:n]
	if n > 1 {
		e.down(0)
	}
	e.now = ev.at
	ev.fn()
}

// up restores the heap order from leaf i towards the root.
func (e *Engine) up(i int) {
	h := e.h
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// down restores the heap order from node i towards the leaves.
func (e *Engine) down(i int) {
	h := e.h
	n := len(h)
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}
