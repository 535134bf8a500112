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
//   - a timeline of Fail/Recover/Move events drawn from a seed, so that runs
//     are reproducible and the experiment engine can fan churn cells across
//     workers with bit-identical output. Each node's churn process and
//     mobility sampler is a stream that draws its next event only when the
//     previous one is consumed, and the World merges the streams in
//     (At, Node, Kind) order, so a world holds O(nodes) timeline state
//     however long the horizon;
//   - a World that applies events to an exclusively-owned topo.Network —
//     targeted gain-row updates for moved or silenced nodes,
//     once per batch, graph refresh, and incremental routing-forest repair
//     (route.Forest.Repair) with full-rebuild fallback on partition;
//   - a Change report per applied batch, which the flow-level simulator
//     consumes at epoch boundaries to drop dead queues, re-home routes and
//     account disruption metrics.
package dynam

import (
	"cmp"
	"fmt"
	"math/rand"
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

// compareEvents orders events by time, then node, then kind. The key is
// total on generated timelines: each node has one churn process and one
// mobility sampler, each strictly increasing in time, and a node's churn
// and move events differ in kind.
func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	return cmp.Compare(a.Kind, b.Kind)
}

// sortEvents orders a scripted timeline by compareEvents, keeping the
// script's order among events with equal keys.
func sortEvents(ev []Event) {
	slices.SortStableFunc(ev, compareEvents)
}

// stream yields one source's events in compareEvents order, each drawn
// when the previous one is taken: a node's churn process or mobility
// samples (strictly increasing in time), or a sorted script.
type stream interface {
	// next returns the stream's next event, or false once it has none.
	next() (Event, bool)
}

// churn is a node's alternating up/down process: exponential up times at
// failRate, exponential down times of mean meanDowntime (none: a failure
// is permanent).
type churn struct {
	node         int
	failRate     float64
	meanDowntime des.Time
	horizon      des.Time
	rng          *rand.Rand
	t            des.Time // the last event's time
	down         bool     // the last event was a failure
}

func newChurn(cfg Config, u int) churn {
	return churn{node: u, failRate: cfg.FailRate, meanDowntime: cfg.MeanDowntime, horizon: cfg.Horizon,
		rng: rng.New(deriveSeed(cfg.Seed, int64(2*u)))}
}

// next implements stream. A draw that lands at or past the horizon ends
// the process; the comparison against the time left cannot overflow.
func (c *churn) next() (Event, bool) {
	var d des.Time
	kind := Fail
	if c.down {
		if c.meanDowntime <= 0 {
			return Event{}, false // permanent failure
		}
		d = des.FromSeconds(c.rng.ExpFloat64() * c.meanDowntime.Seconds())
		kind = Recover
	} else {
		d = des.FromSeconds(c.rng.ExpFloat64() / c.failRate)
	}
	if d < 1 {
		d = 1
	}
	if d >= c.horizon-c.t {
		return Event{}, false
	}
	c.t += d
	c.down = !c.down
	return Event{At: c.t, Kind: kind, Node: c.node}, true
}

// moves samples a node's trajectory every interval before the horizon and
// yields a Move event whenever the position actually changed (waypoint
// pauses stay silent).
type moves struct {
	node              int
	step              Stepper
	interval, horizon des.Time
	t                 des.Time   // the last sample's time
	prev              geom.Point // the last position yielded
}

func newMoves(cfg Config, u int, interval des.Time, start geom.Point, region geom.Rect) moves {
	step := cfg.Mobility.Start(start, region, rng.New(deriveSeed(cfg.Seed, int64(2*u+1))))
	return moves{node: u, step: step, interval: interval, horizon: cfg.Horizon, prev: start}
}

// next implements stream.
func (m *moves) next() (Event, bool) {
	for m.interval < m.horizon-m.t {
		m.t += m.interval
		p, moving := m.step.Step(m.t)
		if p != m.prev {
			m.prev = p
			return Event{At: m.t, Kind: Move, Node: m.node, Pos: p}, true
		}
		if !moving {
			break
		}
	}
	return Event{}, false
}

// script yields a sorted scripted timeline.
type script []Event

// next implements stream.
func (s *script) next() (Event, bool) {
	if len(*s) == 0 {
		return Event{}, false
	}
	e := (*s)[0]
	*s = (*s)[1:]
	return e, true
}

// timeline merges streams into one sequence in compareEvents order: a
// binary min-heap of each stream's next event. Every stream is strictly
// increasing and the key is total, so the heap's least head is the least
// event left anywhere, and popping heads yields exactly the streams'
// events sorted.
type timeline struct {
	heads []head
}

type head struct {
	ev  Event
	src stream
}

// newTimeline draws each stream's first event and heapifies them.
func newTimeline(streams []stream) timeline {
	q := timeline{heads: make([]head, 0, len(streams))}
	for _, s := range streams {
		if ev, ok := s.next(); ok {
			q.heads = append(q.heads, head{ev, s})
		}
	}
	for i := len(q.heads)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

// peek returns the earliest event left, or false when none is.
func (q *timeline) peek() (Event, bool) {
	if len(q.heads) == 0 {
		return Event{}, false
	}
	return q.heads[0].ev, true
}

// pop removes the earliest event left, replacing it by its stream's next
// one. The timeline must not be empty.
func (q *timeline) pop() Event {
	h := &q.heads[0]
	ev := h.ev
	if next, ok := h.src.next(); ok {
		h.ev = next
	} else {
		last := len(q.heads) - 1
		q.heads[0] = q.heads[last]
		q.heads[last] = head{}
		q.heads = q.heads[:last]
	}
	q.down(0)
	return ev
}

// down restores the heap order below heads[i].
func (q *timeline) down(i int) {
	h := q.heads
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && compareEvents(h[r].ev, h[m].ev) < 0 {
			m = r
		}
		if compareEvents(h[m].ev, h[i].ev) >= 0 {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
