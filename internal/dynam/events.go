// Package dynam is the topology-dynamics subsystem: it drives node churn
// (failures and recoveries, including gateway outages) and node mobility
// (random-waypoint and fixed-drift models) against a live deployment on a
// deterministic per-seed event timeline.
//
// The static problem the rest of the repository reproduces assumes a frozen
// topology; SCREAM's distributed re-scheduling (Section IV of the paper) is
// precisely the machinery that should earn its keep when the topology is
// *not* frozen — the evaluation style of the related work (Vieira et al.,
// Halldórsson & Mitra). This package supplies the missing axis:
//
//   - a timeline of Fail/Recover/Move events, fully pre-generated from a
//     seed so that runs are reproducible and the experiment engine can fan
//     churn cells across workers with bit-identical output;
//   - a World that applies events to an exclusively-owned topo.Network —
//     targeted RX-power-matrix invalidation for moved or silenced nodes,
//     once per batch, graph refresh, and incremental routing-forest repair
//     (route.Forest.Repair) with full-rebuild fallback on partition;
//   - a Change report per applied batch, which the flow-level simulator
//     consumes at epoch boundaries to drop dead queues, re-home routes and
//     account disruption metrics.
package dynam

import (
	"cmp"
	"fmt"
	"slices"

	"scream/internal/des"
	"scream/internal/geom"
	"scream/internal/rng"
)

// Kind is the type of a topology event.
type Kind int

const (
	// Fail switches a node's radio off.
	Fail Kind = iota + 1
	// Recover switches it back on at its current position.
	Recover
	// Move relocates a node.
	Move
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Recover:
		return "recover"
	case Move:
		return "move"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timeline entry.
type Event struct {
	At   des.Time
	Kind Kind
	Node int
	Pos  geom.Point // Move events only
}

// Config parameterizes a dynamics timeline.
type Config struct {
	// FailRate is the expected number of failures per node per simulated
	// second (exponential inter-failure times). 0 disables churn.
	FailRate float64
	// MeanDowntime is the mean exponential repair time after a failure.
	// 0 makes failures permanent.
	MeanDowntime des.Time
	// FailGateways includes the gateways in the churn process. Default
	// false: gateways are typically wired, powered infrastructure.
	FailGateways bool

	// Mobility moves the non-gateway nodes; nil keeps positions static.
	Mobility Mobility
	// MoveInterval is the position sampling period for mobility (default
	// 100 ms): each mobile node emits at most one Move event per interval.
	MoveInterval des.Time

	// Horizon bounds the timeline; no event is generated at or beyond it.
	Horizon des.Time
	// Seed drives every random draw of the timeline.
	Seed int64

	// Script, when non-nil, is used verbatim (sorted) instead of generating
	// a timeline — the hook for tests and scripted failure bursts. The
	// churn/mobility fields are ignored.
	Script []Event
}

// deriveSeed decorrelates derived per-node seeds from the user seed. It
// uses a different mixing constant than flow.DeriveSeed so that dynamics
// streams never collide with a run's arrival-process streams even when both
// derive from the same user seed.
func deriveSeed(base int64, stream int64) int64 {
	return int64(rng.SplitMix64(uint64(base)*0xd1342543de82ef95 + uint64(stream)))
}

// sortEvents orders a timeline deterministically: by time, then node, then
// kind. Ties on (time, node) cannot occur in generated timelines (one churn
// process and one mobility sampler per node, offset sampling grids), but
// scripted timelines get a total order too.
func sortEvents(ev []Event) {
	slices.SortStableFunc(ev, func(a, b Event) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
}

// generateChurn draws node u's alternating up/down process.
func generateChurn(cfg Config, u int, out []Event) []Event {
	rng := rng.New(deriveSeed(cfg.Seed, int64(2*u)))
	t := des.Time(0)
	for {
		up := des.FromSeconds(rng.ExpFloat64() / cfg.FailRate)
		if up < 1 {
			up = 1
		}
		t += up
		if t >= cfg.Horizon {
			return out
		}
		out = append(out, Event{At: t, Kind: Fail, Node: u})
		if cfg.MeanDowntime <= 0 {
			return out // permanent failure
		}
		down := des.FromSeconds(rng.ExpFloat64() * cfg.MeanDowntime.Seconds())
		if down < 1 {
			down = 1
		}
		t += down
		if t >= cfg.Horizon {
			return out
		}
		out = append(out, Event{At: t, Kind: Recover, Node: u})
	}
}

// generateMoves samples node u's mobility trajectory every MoveInterval,
// emitting a Move event whenever the position actually changed (waypoint
// pauses stay silent).
func generateMoves(cfg Config, u int, start geom.Point, region geom.Rect, out []Event) []Event {
	interval := cfg.MoveInterval
	if interval <= 0 {
		interval = 100 * des.Millisecond
	}
	var samples []des.Time
	for t := interval; t < cfg.Horizon; t += interval {
		samples = append(samples, t)
	}
	if len(samples) == 0 {
		return out
	}
	rng := rng.New(deriveSeed(cfg.Seed, int64(2*u+1)))
	traj := cfg.Mobility.Trajectory(start, region, samples, rng)
	prev := start
	for i, p := range traj {
		if p != prev {
			out = append(out, Event{At: samples[i], Kind: Move, Node: u, Pos: p})
			prev = p
		}
	}
	return out
}
