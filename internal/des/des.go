// Package des is a small deterministic discrete-event simulation engine: an
// int64-nanosecond clock and a stable event queue. It is the substrate that
// replaces the paper's GTNetS packet-level simulator for the components that
// need event-driven execution (the mote experiment, the packet-level radio).
package des

import "fmt"

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String implements fmt.Stringer.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  func()
}

// before orders events by (at, seq). seq is unique, so this is a total
// order: any correct min-heap pops events in the same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap over events, typed so that pushing and
// popping never box an event into an interface.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	last := len(q) - 1
	ev := q[0]
	q[0] = q[last]
	// Clear the vacated slot so the backing array does not keep a fired
	// closure (and everything it captures) alive.
	q[last] = event{}
	q = q[:last]
	*h = q
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < last && q[l].before(&q[least]) {
			least = l
		}
		if r := l + 1; r < last && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return ev
}

// Engine is a single-threaded event loop. Events scheduled for the same
// instant run in scheduling order, which makes runs bit-for-bit reproducible.
type Engine struct {
	now  Time
	heap eventHeap
	seq  uint64
}

// New returns an engine at time zero with no pending events.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics (it would silently corrupt causality).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.heap.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// Step executes the earliest pending event and returns true, or returns
// false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t.
func (e *Engine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
