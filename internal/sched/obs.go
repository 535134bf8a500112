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

// recordBuild publishes one finished greedy construction: the slot count and
// per-slot fill distribution of the slots it filled. Disabled, it is a
// single pointer load — no allocation, no iteration.
func recordBuild[S interface{ Len() int }](slots []S) {
	m := schedMetrics.Load()
	if m == nil {
		return
	}
	m.builds.Inc()
	m.slots.Add(int64(len(slots)))
	var admitted int64
	for _, sl := range slots {
		admitted += int64(sl.Len())
		m.slotFill.Observe(float64(sl.Len()))
	}
	m.admissions.Add(admitted)
}
