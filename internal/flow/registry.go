package flow

// The flow-scheduler registry: every epoch scheduler the simulator offers,
// behind one name-addressable table. The table is the single source of truth
// for scheduler enumeration — the root package's public registry
// (scream.Schedulers), the flowsim CLI's -scheduler flag, the figure
// harness's scheduler-family sweeps and the screamd daemon's /schedulers
// endpoint all iterate it instead of maintaining parallel switch statements.
// The centralized single-channel members are backed by the static scheduler
// family of sched.Backends(), whose doc strings they share.

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
	// Metrics and Trace are forwarded into the distributed protocols' epoch
	// runs (write-only observability).
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// SchedulerDef is one registry entry: a named, documented epoch-scheduler
// constructor.
type SchedulerDef struct {
	// Name is the canonical registry key ("greedy", "fdd", ...): the value
	// of flowsim -scheduler, ScenarioSpec.Scheduler and the daemon API.
	Name string
	// Display is the figure-series label ("Greedy", "FDD", ...).
	Display string
	// Doc is a one-line description for API listings and --help output.
	Doc string
	// Distributed marks schedulers that pay real (non-genie) control cost.
	Distributed bool
	// MultiChannel marks schedulers that accept Env.Channels > 1.
	MultiChannel bool
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

// requireDense returns an error unless the environment's engine is the
// dense channel. The distributed protocols (and anything else that
// simulates real reception) need exact interference, not a conservative
// bound.
func (e SchedulerEnv) requireDense(name string) error {
	if e.Engine == nil {
		return nil
	}
	if _, ok := e.Engine.(*phys.Channel); ok {
		return nil
	}
	return fmt.Errorf("flow: scheduler %q requires the dense interference engine", name)
}

func (e SchedulerEnv) protocolConfig(v core.Variant) ProtocolSchedulerConfig {
	cfg := ProtocolSchedulerConfig{
		Channel: e.Channel,
		Sens:    e.Sens,
		Links:   e.Links,
		K:       e.K,
		Timing:  e.Timing,
		Variant: v,
		P:       e.P,
		Seed:    e.Seed,
		Metrics: e.Metrics,
		Trace:   e.Trace,
	}
	if e.Channels > 1 {
		cfg.Channels = e.Channels
		cfg.Radios = e.Radios
	}
	return cfg
}

// backendDoc pulls the doc string of the static scheduler-family member the
// flow scheduler wraps (sched.Backends is the source of truth for the
// centralized single-channel family).
func backendDoc(prefix string) string {
	for _, b := range sched.Backends() {
		if strings.HasPrefix(b.Name, prefix) {
			return b.Doc
		}
	}
	return ""
}

// SchedulerDefs returns the registered epoch schedulers in reporting order:
// the centralized baselines first (greedy, maxweight, fanzhang), then the
// distributed protocols (fdd, pdd), then the no-reuse TDMA floor. The
// returned slice is freshly allocated — callers may reorder or filter it.
func SchedulerDefs() []SchedulerDef {
	return []SchedulerDef{
		{
			Name:         "greedy",
			Display:      "Greedy",
			Doc:          backendDoc("greedy("),
			MultiChannel: true,
			New: func(env SchedulerEnv) (Scheduler, error) {
				return NewGreedyScheduler(env.engine(), env.Channels, env.Radios, env.Links), nil
			},
		},
		{
			Name:    "maxweight",
			Display: "MaxWeight",
			Doc:     backendDoc("maxweight"),
			New: func(env SchedulerEnv) (Scheduler, error) {
				if env.Channels > 1 {
					return Scheduler{}, fmt.Errorf("flow: scheduler %q is single-channel only", "maxweight")
				}
				return NewCentralizedScheduler("maxweight", env.engine(), env.Links, sched.GreedyMaxWeight), nil
			},
		},
		{
			Name:    "fanzhang",
			Display: "FanZhang",
			Doc:     backendDoc("fanzhang"),
			New: func(env SchedulerEnv) (Scheduler, error) {
				if env.Channels > 1 {
					return Scheduler{}, fmt.Errorf("flow: scheduler %q is single-channel only", "fanzhang")
				}
				return NewCentralizedScheduler("fanzhang", env.engine(), env.Links, sched.ApproxFanZhang), nil
			},
		},
		{
			Name:         "fdd",
			Display:      "FDD",
			Doc:          "fully deterministic distributed protocol re-run each epoch at real SCREAM/election/handshake control cost",
			Distributed:  true,
			MultiChannel: true,
			New: func(env SchedulerEnv) (Scheduler, error) {
				if err := env.requireDense("fdd"); err != nil {
					return Scheduler{}, err
				}
				return NewProtocolScheduler(env.protocolConfig(core.FDD))
			},
		},
		{
			Name:         "pdd",
			Display:      "PDD",
			Doc:          "randomized (activation probability P) distributed protocol re-run each epoch at real control cost",
			Distributed:  true,
			MultiChannel: true,
			New: func(env SchedulerEnv) (Scheduler, error) {
				if err := env.requireDense("pdd"); err != nil {
					return Scheduler{}, err
				}
				return NewProtocolScheduler(env.protocolConfig(core.PDD))
			},
		},
		{
			Name:         "tdma",
			Display:      "TDMA",
			Doc:          "static frame serving every backlogged link one singleton slot per scan: the no-spatial-reuse floor, zero control cost",
			MultiChannel: true,
			New: func(env SchedulerEnv) (Scheduler, error) {
				return NewTDMAScheduler(env.Links, env.Channels, env.Radios), nil
			},
		},
	}
}

// SchedulerNames returns the registered scheduler names in registry order.
func SchedulerNames() []string {
	defs := SchedulerDefs()
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// SchedulerDefByName resolves a registry name. Unknown names return an error
// listing every valid name, so a CLI or API caller sees their options.
func SchedulerDefByName(name string) (SchedulerDef, error) {
	for _, d := range SchedulerDefs() {
		if d.Name == name {
			return d, nil
		}
	}
	valid := SchedulerNames()
	sort.Strings(valid)
	return SchedulerDef{}, fmt.Errorf("flow: unknown scheduler %q (valid: %s)", name, strings.Join(valid, ", "))
}
