package scream

// The public scheduler registry: one name-addressable table unifying every
// flow-scheduler variant. CLIs, the screamd daemon and library callers all
// resolve schedulers by name — the value of ScenarioSpec.Scheduler — through
// SchedulerByName, and enumerate them through Schedulers.

import (
	"fmt"

	"scream/internal/flow"
)

// SchedulerInfo describes one registered flow scheduler: its registry Name,
// figure-series Display label, one-line Doc, whether it is Distributed (pays
// real control cost in simulated time) and whether it is MultiChannel
// (accepts ScenarioSpec.Channels > 1). The JSON shape is served verbatim by
// screamd's /api/v1/schedulers endpoint.
type SchedulerInfo = flow.SchedulerInfo

// Schedulers enumerates the registered flow schedulers in reporting order.
// The returned slice is freshly allocated on every call: mutating it (or its
// entries) never affects the registry.
func Schedulers() []SchedulerInfo {
	defs := flow.SchedulerDefs()
	infos := make([]SchedulerInfo, len(defs))
	for i, d := range defs {
		infos[i] = d.SchedulerInfo
	}
	return infos
}

// SchedulerByName resolves a registry name ("greedy", "maxweight",
// "fanzhang", "fdd", "pdd", "tdma") to its description. Unknown names return
// an error listing every valid name.
func SchedulerByName(name string) (SchedulerInfo, error) {
	d, err := flow.SchedulerDefByName(name)
	if err != nil {
		return SchedulerInfo{}, fmt.Errorf("scream: %w", err)
	}
	return d.SchedulerInfo, nil
}
