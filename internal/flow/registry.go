package flow

// The flow-scheduler registry: every epoch scheduler the simulator offers,
// behind one name-addressable table. The table is the single source of truth
// for scheduler enumeration — the root package's public registry
// (scream.Schedulers), the flowsim CLI's -scheduler flag, the figure
// harness's scheduler-family sweeps and the screamd daemon's /schedulers
// endpoint all iterate it instead of maintaining parallel switch statements.

import (
	"fmt"
	"sort"
	"strings"

	"scream/internal/core"
	"scream/internal/graph"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/sched"
)

// SchedulerEnv carries everything a registered scheduler constructor may
// need. Callers fill the fields relevant to the scheduler they build;
// constructors ignore the rest (the TDMA frame needs only Links, the
// distributed protocols need the full control-plane view).
type SchedulerEnv struct {
	// Channel is the deployment's physical channel (SINR feasibility).
	Channel *phys.Channel
	// Engine, when non-nil, is the interference engine the centralized
	// schedulers build against instead of Channel — e.g. the spatial
	// grid-bucket index. The distributed protocols simulate real radios
	// over the exact channel and reject a non-dense engine. Nil means
	// Channel.
	Engine phys.Engine
	// Sens is the sensitivity graph, required by the distributed protocols.
	Sens *graph.Graph
	// Links is the link set schedules are built over.
	Links []phys.Link
	// K is the SCREAM length for the distributed protocols; 0 derives the
	// interference diameter from Sens.
	K int
	// Timing is the slot timing model (zero value = core.DefaultTiming).
	Timing core.Timing
	// P is PDD's activation probability.
	P float64
	// Seed drives the distributed protocols' per-epoch randomness.
	Seed int64
	// Channels is the number of orthogonal data channels (0 or 1 =
	// single-channel); Radios the per-node radio budget for multi-channel
	// packing.
	Channels int
	Radios   int
	// Metrics receives the scheduler's builds or protocol runs (nil: the
	// process default); Trace is forwarded into the protocols' epoch runs.
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// SchedulerInfo describes one registered epoch scheduler. The JSON shape is
// served verbatim by screamd's /api/v1/schedulers endpoint (scream.SchedulerInfo
// is this type).
type SchedulerInfo struct {
	// Name is the registry key: the value of flowsim -scheduler,
	// ScenarioSpec.Scheduler and SchedulerByName.
	Name string `json:"name"`
	// Display is the human label used for figure series ("Greedy", "FDD").
	Display string `json:"display"`
	// Doc is a one-line description of the scheduling discipline.
	Doc string `json:"doc"`
	// Distributed marks schedulers that pay real (non-genie) control cost
	// in simulated time (FDD, PDD).
	Distributed bool `json:"distributed"`
	// MultiChannel marks schedulers that accept ScenarioSpec.Channels > 1.
	MultiChannel bool `json:"multi_channel"`
}

// SchedulerDef is one registry entry: a scheduler's description and its
// constructor.
type SchedulerDef struct {
	SchedulerInfo
	// New builds the scheduler for an environment.
	New func(env SchedulerEnv) (Scheduler, error)
}

// engine returns the interference engine schedulers build against: Engine
// when set, otherwise the dense channel.
func (e SchedulerEnv) engine() phys.Engine {
	if e.Engine != nil {
		return e.Engine
	}
	return e.Channel
}

// singleChannel builds a centralized scheduler that has no multi-channel
// form, rejecting env.Channels > 1.
func singleChannel(name string, build func(b *sched.Builder, eng phys.Engine, links []phys.Link, demands []int) (*sched.Schedule, error)) func(SchedulerEnv) (Scheduler, error) {
	return func(env SchedulerEnv) (Scheduler, error) {
		if env.Channels > 1 {
			return Scheduler{}, fmt.Errorf("flow: scheduler %q is single-channel only", name)
		}
		return NewCentralizedScheduler(name, env, build), nil
	}
}

// schedulerDefs is the registry table in reporting order: the centralized
// baselines first (greedy, maxweight, fanzhang), then the distributed
// protocols (fdd, pdd), then the no-reuse TDMA floor. Nothing writes to it:
// SchedulerDefs and SchedulerDefByName hand out copies.
var schedulerDefs = [...]SchedulerDef{
	{
		SchedulerInfo: SchedulerInfo{
			Name:         "greedy",
			Display:      "Greedy",
			Doc:          "centralized GreedyPhysical in the paper's head-ID admission order (the order FDD emulates)",
			MultiChannel: true,
		},
		New: func(env SchedulerEnv) (Scheduler, error) {
			return NewGreedyScheduler(env), nil
		},
	},
	{
		SchedulerInfo: SchedulerInfo{
			Name:    "maxweight",
			Display: "MaxWeight",
			Doc:     "queue-aware greedy re-ranking links by backlog x Shannon-rate each build (arXiv:1106.1590)",
		},
		New: singleChannel("maxweight", (*sched.Builder).GreedyMaxWeight),
	},
	{
		SchedulerInfo: SchedulerInfo{
			Name:    "fanzhang",
			Display: "FanZhang",
			Doc:     "Fan-Zhang length-class approximation: geometric classes first-fit on fresh slots, longest class first (arXiv:0910.5215)",
		},
		New: singleChannel("fanzhang", (*sched.Builder).ApproxFanZhang),
	},
	{
		SchedulerInfo: SchedulerInfo{
			Name:         "fdd",
			Display:      "FDD",
			Doc:          "fully deterministic distributed protocol re-run each epoch at real SCREAM/election/handshake control cost",
			Distributed:  true,
			MultiChannel: true,
		},
		New: func(env SchedulerEnv) (Scheduler, error) {
			return NewProtocolScheduler(env, core.FDD)
		},
	},
	{
		SchedulerInfo: SchedulerInfo{
			Name:         "pdd",
			Display:      "PDD",
			Doc:          "randomized (activation probability P) distributed protocol re-run each epoch at real control cost",
			Distributed:  true,
			MultiChannel: true,
		},
		New: func(env SchedulerEnv) (Scheduler, error) {
			return NewProtocolScheduler(env, core.PDD)
		},
	},
	{
		SchedulerInfo: SchedulerInfo{
			Name:         "tdma",
			Display:      "TDMA",
			Doc:          "static frame serving every backlogged link one singleton slot per scan: the no-spatial-reuse floor, zero control cost",
			MultiChannel: true,
		},
		New: func(env SchedulerEnv) (Scheduler, error) {
			return NewTDMAScheduler(env.Links, env.Channels, env.Radios), nil
		},
	},
}

// SchedulerDefs returns the registered epoch schedulers in reporting order.
// The returned slice is freshly allocated — callers may reorder or filter it.
func SchedulerDefs() []SchedulerDef {
	return append([]SchedulerDef(nil), schedulerDefs[:]...)
}

// SchedulerDefByName resolves a registry name. Unknown names return an error
// listing every valid name, so a CLI or API caller sees their options.
func SchedulerDefByName(name string) (SchedulerDef, error) {
	for _, d := range schedulerDefs {
		if d.Name == name {
			return d, nil
		}
	}
	// Scenario validation resolves the scheduler on every run, so the name
	// list is built only on a miss.
	valid := make([]string, len(schedulerDefs))
	for i, d := range schedulerDefs {
		valid[i] = d.Name
	}
	sort.Strings(valid)
	return SchedulerDef{}, fmt.Errorf("flow: unknown scheduler %q (valid: %s)", name, strings.Join(valid, ", "))
}
