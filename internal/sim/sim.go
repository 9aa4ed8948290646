// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a future-event list ordered by (time, sequence).
// Components schedule handlers at absolute or relative cycle times; the
// engine dispatches them in order. Ties are broken by insertion order so a
// run is fully reproducible.
//
// The event list is a binary min-heap of value-typed events, so
// scheduling allocates nothing once the heap has grown to the run's
// working depth. Hot paths schedule pre-bound Handler records; cold
// paths may wrap a closure in Func.
package sim

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Handler is a scheduled continuation. Fire runs it at its event's cycle.
type Handler interface{ Fire() }

// Func adapts a closure to Handler for paths where an allocation per
// event does not matter.
type Func func()

// Fire runs the closure.
func (f Func) Fire() { f() }

// event is one queued handler. (when, seq) is a total order: seq is
// unique and grows with every Schedule.
type event struct {
	when Cycle
	seq  uint64
	h    Handler
}

func (a *event) before(b *event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now    Cycle
	seq    uint64
	events []event // binary min-heap on (when, seq)
	fired  uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule queues h to fire at absolute cycle when. Scheduling in the past
// (or at the current cycle) fires h at the current cycle, after all
// already-queued events for this cycle.
func (e *Engine) Schedule(when Cycle, h Handler) {
	if when < e.now {
		when = e.now
	}
	e.events = append(e.events, event{when: when, seq: e.seq, h: h})
	e.seq++
	e.up(len(e.events) - 1)
}

// At schedules fn to run at absolute cycle when.
func (e *Engine) At(when Cycle, fn func()) { e.Schedule(when, Func(fn)) }

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.Schedule(e.now+delay, Func(fn)) }

// up restores the heap order after an append at index j.
func (e *Engine) up(j int) {
	h := e.events
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
}

// down restores the heap order after the root was replaced.
func (e *Engine) down() {
	h := e.events
	n := len(h)
	ev := h[0]
	i := 0
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

// Step dispatches the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events[0]
	last := len(e.events) - 1
	e.events[0] = e.events[last]
	e.events[last] = event{} // drop the handler reference
	e.events = e.events[:last]
	if last > 1 {
		e.down()
	}
	e.now = ev.when
	e.fired++
	ev.h.Fire()
	return true
}

// Run dispatches events until the queue drains or the time limit is
// exceeded. A limit of 0 means no limit. It returns the cycle at which the
// run stopped.
func (e *Engine) Run(limit Cycle) Cycle {
	for len(e.events) > 0 {
		if limit != 0 && e.events[0].when > limit {
			e.now = limit
			break
		}
		e.Step()
	}
	return e.now
}

// Advance moves simulated time forward by d cycles, dispatching any events
// that fall due in the crossed interval, and returns the new current time.
// Components that consume time without scheduling callbacks (e.g. a memory
// controller stalling on a link retry backoff) use this to charge latency
// to the clock.
func (e *Engine) Advance(d Cycle) Cycle {
	if d == 0 {
		return e.now
	}
	target := e.now + d
	for len(e.events) > 0 && e.events[0].when <= target {
		e.Step()
	}
	e.now = target
	return e.now
}

// RunUntil dispatches events while cond() is true and events remain, up to
// the optional time limit (0 = none). It returns the stop cycle.
func (e *Engine) RunUntil(limit Cycle, cond func() bool) Cycle {
	for cond() && len(e.events) > 0 {
		if limit != 0 && e.events[0].when > limit {
			e.now = limit
			break
		}
		e.Step()
	}
	return e.now
}
