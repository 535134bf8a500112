package sched

import (
	"scream/internal/obs"
)

// SlotCounters are the slot engine's counters in one registry. internal/phys
// keeps no metrics: SlotState's callers count their calls and publish them
// here, Builder.admit its probes and admissions with each build, and the
// protocol loop in internal/core its tentative adds and rollbacks per run.
type SlotCounters struct{ CanAdd, Adds, Rollbacks *obs.Counter }

// NewSlotCounters returns r's slot-engine counters (nil on a nil registry).
func NewSlotCounters(r *obs.Registry) SlotCounters {
	return SlotCounters{
		CanAdd:    r.Counter("scream_phys_canadd_total", "SlotState.CanAdd admission probes (single- and multi-channel)"),
		Adds:      r.Counter("scream_phys_slot_adds_total", "links admitted into slot states"),
		Rollbacks: r.Counter("scream_phys_rollbacks_total", "SlotState.Rollback tentative-batch undos"),
	}
}

// builderObs is a Builder's metric handles in the registry reg. They are
// strictly write-only: no scheduling decision ever reads them.
type builderObs struct {
	reg                       *obs.Registry
	builds, admissions, slots *obs.Counter
	slotFill                  *obs.Histogram
	slot                      SlotCounters
}

func newBuilderObs(r *obs.Registry) builderObs {
	return builderObs{
		reg:        r,
		builds:     r.Counter("scream_sched_builds_total", "greedy-family schedule constructions"),
		admissions: r.Counter("scream_sched_admissions_total", "link placements admitted into schedule slots"),
		slots:      r.Counter("scream_sched_slots_total", "schedule slots materialized"),
		slotFill:   r.Histogram("scream_sched_slot_fill", "links per materialized schedule slot", obs.SlotFillBuckets()),
		slot:       NewSlotCounters(r),
	}
}

// RegisterMetrics registers a Builder's series, the slot engine's among
// them, in r at zero, so that a scrape lists them before the first build.
func RegisterMetrics(r *obs.Registry) { newBuilderObs(r) }

// recordBuild publishes one finished admission pass into the builder's
// registry (resolving its handles once per registry): the pass's probes
// CanAdd calls, and the slot count and per-slot fill distribution of the
// slots [first, end) it filled over channels channels. Disabled, it is a
// single pointer load — no allocation, no iteration.
func (b *Builder) recordBuild(channels, first, end int, probes int64) {
	r := obs.Resolve(b.Metrics)
	if r == nil {
		return
	}
	m := &b.handles
	if m.reg != r {
		*m = newBuilderObs(r)
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
	m.slot.CanAdd.Add(probes)
	m.slot.Adds.Add(admitted)
}
