package sched

import (
	"sync/atomic"

	"scream/internal/obs"
)

// Process-wide scheduler instrumentation, mirroring the phys package's
// pattern: Backend.Build has a fixed signature shared by every scheduler
// family, so per-run plumbing is impossible without breaking the registry
// contract. The handles live in one atomically-swapped bundle; disabled (the
// default) costs a single pointer load per schedule construction, and the
// counters are strictly write-only — no scheduling decision ever reads them.
type schedObs struct {
	builds     *obs.Counter
	admissions *obs.Counter
	slots      *obs.Counter
	slotFill   *obs.Histogram
}

var schedMetrics atomic.Pointer[schedObs]

// SetObs wires the scheduler-construction counters into r (nil detaches
// them). Intended to be called once at process start by a CLI enabling
// observability; safe to call concurrently with running schedulers.
func SetObs(r *obs.Registry) {
	if r == nil {
		schedMetrics.Store(nil)
		return
	}
	schedMetrics.Store(&schedObs{
		builds:     r.Counter("scream_sched_builds_total", "greedy-family schedule constructions"),
		admissions: r.Counter("scream_sched_admissions_total", "link placements admitted into schedule slots"),
		slots:      r.Counter("scream_sched_slots_total", "schedule slots materialized"),
		slotFill:   r.Histogram("scream_sched_slot_fill", "links per materialized schedule slot", obs.SlotFillBuckets()),
	})
}

// recordBuild publishes one finished admission pass: the slot count and
// per-slot fill distribution of the slots [first, end) it filled over
// channels channels. Disabled, it is a single pointer load — no
// allocation, no iteration.
func (b *Builder) recordBuild(channels, first, end int) {
	m := schedMetrics.Load()
	if m == nil {
		return
	}
	m.builds.Inc()
	m.slots.Add(int64(end - first))
	var admitted int64
	for i := first; i < end; i++ {
		fill := b.fill(channels, i)
		admitted += int64(fill)
		m.slotFill.Observe(float64(fill))
	}
	m.admissions.Add(admitted)
}
