package dynam

import (
	"fmt"
	"slices"

	"scream/internal/des"
	"scream/internal/geom"
	"scream/internal/graph"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/route"
	"scream/internal/topo"
)

// World owns a mutable deployment and applies the dynamics timeline to it:
// channel invalidation for moved and silenced nodes, graph refresh, and
// incremental routing-forest repair. The consumer (the flow-level epoch
// driver) calls AdvanceTo at each epoch boundary and reacts to the returned
// Change.
//
// The World requires exclusive ownership of net — Clone a shared deployment
// before handing it over. The forests it returns use canonical (nil-rng)
// tie-breaking so that every run is reproducible.
type World struct {
	net      *topo.Network
	forest   *route.Forest
	links    []phys.Link
	alive    []bool
	gateways []int // the configured gateway set

	events timeline

	// Optional instrumentation, attached via SetObs.
	obs   *worldObs
	trace *obs.Tracer

	// Optional spatial interference engine kept in lockstep with the
	// timeline, attached via AttachSpatial.
	spatial SpatialEngine

	// scratch
	changed     []int
	changedSeen []bool
}

// Change reports one applied event batch.
type Change struct {
	// At is the timestamp of the last event applied in the batch.
	At des.Time
	// Failed, Recovered and Moved list the affected nodes (Moved may repeat
	// a node when the batch spans several sampling instants).
	Failed, Recovered, Moved []int
	// Rebuilt reports that every node chose its parent again: the gateway
	// set changed, the network partitioned or most nodes were dirty
	// (route.Forest.Repair).
	Rebuilt bool
	// Detached is the number of nodes currently attached to no gateway tree
	// (dead nodes included).
	Detached int
}

// Events returns the total number of events in the batch.
func (c *Change) Events() int {
	return len(c.Failed) + len(c.Recovered) + len(c.Moved)
}

// NewWorld builds a world over an exclusively-owned network and its routing
// forest. The timeline is drawn from cfg as the world advances: NewWorld
// starts one churn stream and one mobility stream per node and draws only
// their first events.
func NewWorld(net *topo.Network, forest *route.Forest, cfg Config) (*World, error) {
	n := net.NumNodes()
	if forest.NumNodes() != n {
		return nil, fmt.Errorf("dynam: forest has %d nodes, network %d", forest.NumNodes(), n)
	}
	if cfg.Script == nil && cfg.Horizon <= 0 {
		return nil, fmt.Errorf("dynam: horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.FailRate < 0 {
		return nil, fmt.Errorf("dynam: negative fail rate %v", cfg.FailRate)
	}
	w := &World{
		net:         net,
		forest:      forest,
		links:       forest.Links(),
		alive:       make([]bool, n),
		gateways:    forest.Gateways(),
		changedSeen: make([]bool, n),
	}
	for i := range w.alive {
		w.alive[i] = true
	}

	if cfg.Script != nil {
		ev := script(slices.Clone(cfg.Script))
		sortEvents(ev)
		for _, e := range ev {
			if e.Node < 0 || e.Node >= n {
				return nil, fmt.Errorf("dynam: scripted event for node %d out of range", e.Node)
			}
			switch e.Kind {
			case Fail, Recover, Move:
			default:
				return nil, fmt.Errorf("dynam: scripted event for node %d has unknown kind %v", e.Node, e.Kind)
			}
		}
		w.events = newTimeline([]stream{&ev})
		return w, nil
	}

	isGW := make([]bool, n)
	for _, g := range w.gateways {
		isGW[g] = true
	}
	interval := cfg.MoveInterval
	if interval <= 0 {
		interval = 100 * des.Millisecond
	}
	var churns []churn
	var samplers []moves
	if cfg.FailRate > 0 {
		churns = make([]churn, 0, n)
	}
	if cfg.Mobility != nil {
		samplers = make([]moves, 0, n)
	}
	for u := 0; u < n; u++ {
		if cfg.FailRate > 0 && (cfg.FailGateways || !isGW[u]) {
			churns = append(churns, newChurn(cfg, u))
		}
		if cfg.Mobility != nil && !isGW[u] && interval < cfg.Horizon {
			samplers = append(samplers, newMoves(cfg, u, interval, net.Nodes[u].Pos, net.Region))
		}
	}
	streams := make([]stream, 0, len(churns)+len(samplers))
	for i := range churns {
		streams = append(streams, &churns[i])
	}
	for i := range samplers {
		streams = append(streams, &samplers[i])
	}
	w.events = newTimeline(streams)
	return w, nil
}

// SpatialEngine is what a World updates in a spatial interference engine:
// a *spatial.Index, or the *spatial.Memo a run wraps around one, which must
// see every move to invalidate the moved node's cached gains.
type SpatialEngine interface {
	MoveNode(u int, p geom.Point) error
	RemoveNode(u int) error
	RestoreNode(u int) error
}

// AttachSpatial registers a spatial interference engine the world keeps in
// lockstep with the deployment: every Fail, Recover and Move event is
// forwarded as the engine's bucket-local RemoveNode/RestoreNode/MoveNode
// update, mirroring the channel's targeted row/column invalidation. The
// engine must describe the same deployment state the world currently holds
// (topo.Network.SpatialEngine over the world's network does). Pass nil to
// detach.
func (w *World) AttachSpatial(e SpatialEngine) { w.spatial = e }

// Alive returns the live aliveness view. The slice is owned by the world;
// callers must treat it as read-only and must not retain it across
// AdvanceTo calls they expect to be stale-proof.
func (w *World) Alive() []bool { return w.alive }

// IsAlive reports whether node u is currently up.
func (w *World) IsAlive(u int) bool { return w.alive[u] }

// Forest returns the current routing forest.
func (w *World) Forest() *route.Forest { return w.forest }

// Links returns the current forest's links (owner order).
func (w *World) Links() []phys.Link { return w.links }

// Sens returns the current sensitivity graph.
func (w *World) Sens() *graph.Graph { return w.net.Sens }

// AliveGateways returns the configured gateways that are currently up.
func (w *World) AliveGateways() []int {
	var out []int
	for _, g := range w.gateways {
		if w.alive[g] {
			out = append(out, g)
		}
	}
	return out
}

// NextEventAt returns the timestamp of the next unapplied event.
func (w *World) NextEventAt() (des.Time, bool) {
	e, ok := w.events.peek()
	return e.At, ok
}

// markChanged records u and its current comm neighbors as
// adjacency-affected for the pending repair.
func (w *World) markChanged(u int) {
	if !w.changedSeen[u] {
		w.changedSeen[u] = true
		w.changed = append(w.changed, u)
	}
	for _, v := range w.net.Comm.Neighbors(u) {
		if !w.changedSeen[v] {
			w.changedSeen[v] = true
			w.changed = append(w.changed, v)
		}
	}
}

// AdvanceTo applies every event with At <= t and returns the resulting
// Change, or nil when no event was due. A failure zeroes the node's channel
// row at once; moves and recoveries only record the new position or state.
// Once per batch, RefreshGraphs recomputes each stale channel row once and
// rebuilds the graphs, and the forest is repaired, so the channel is current
// again when AdvanceTo returns.
func (w *World) AdvanceTo(t des.Time) (*Change, error) {
	if e, ok := w.events.peek(); !ok || e.At > t {
		return nil, nil
	}
	ch := &Change{}
	w.changed = w.changed[:0]
	batch := make([]int, 0, 8) // event nodes; re-marked against the new graphs
	for e, ok := w.events.peek(); ok && e.At <= t; e, ok = w.events.peek() {
		w.events.pop()
		switch e.Kind {
		case Fail:
			if !w.alive[e.Node] {
				continue
			}
			w.markChanged(e.Node) // old neighbors lose an edge
			if err := w.net.SetNodeDown(e.Node); err != nil {
				return nil, fmt.Errorf("dynam: %w", err)
			}
			if w.spatial != nil {
				if err := w.spatial.RemoveNode(e.Node); err != nil {
					return nil, fmt.Errorf("dynam: %w", err)
				}
			}
			w.alive[e.Node] = false
			ch.Failed = append(ch.Failed, e.Node)
		case Recover:
			if w.alive[e.Node] {
				continue
			}
			w.markChanged(e.Node)
			if err := w.net.SetNodeUp(e.Node); err != nil {
				return nil, fmt.Errorf("dynam: %w", err)
			}
			if w.spatial != nil {
				if err := w.spatial.RestoreNode(e.Node); err != nil {
					return nil, fmt.Errorf("dynam: %w", err)
				}
			}
			w.alive[e.Node] = true
			ch.Recovered = append(ch.Recovered, e.Node)
		case Move:
			if !w.alive[e.Node] {
				// A dead node keeps moving (it recovers wherever it is by
				// then) but its silent radio changes nothing observable: no
				// gain change, no repair, no Change entry.
				if err := w.net.MoveNode(e.Node, e.Pos); err != nil {
					return nil, fmt.Errorf("dynam: %w", err)
				}
				if w.spatial != nil {
					if err := w.spatial.MoveNode(e.Node, e.Pos); err != nil {
						return nil, fmt.Errorf("dynam: %w", err)
					}
				}
				continue
			}
			w.markChanged(e.Node) // neighbors at the old position
			if err := w.net.MoveNode(e.Node, e.Pos); err != nil {
				return nil, fmt.Errorf("dynam: %w", err)
			}
			if w.spatial != nil {
				if err := w.spatial.MoveNode(e.Node, e.Pos); err != nil {
					return nil, fmt.Errorf("dynam: %w", err)
				}
			}
			ch.Moved = append(ch.Moved, e.Node)
		default:
			return nil, fmt.Errorf("dynam: unknown event kind %v", e.Kind)
		}
		batch = append(batch, e.Node)
		ch.At = e.At
	}
	if ch.Events() == 0 {
		return nil, nil // every due event was a no-op
	}

	w.net.RefreshGraphs()
	for _, u := range batch {
		w.markChanged(u) // neighbors at the new position / after recovery
	}

	forest, rebuilt, err := w.forest.Repair(w.net.Comm, w.AliveGateways(), w.alive, w.changed)
	if err != nil {
		return nil, fmt.Errorf("dynam: route repair: %w", err)
	}
	for _, u := range w.changed {
		w.changedSeen[u] = false
	}
	w.forest = forest
	w.links = forest.Links()
	ch.Rebuilt = rebuilt
	ch.Detached = forest.NumDetached()
	w.publishChange(ch)
	return ch, nil
}
