package dynam

import (
	"fmt"

	"scream/internal/des"
	"scream/internal/graph"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/phys/spatial"
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

	timeline []Event
	next     int

	// Optional instrumentation, attached via SetObs.
	obs   *worldObs
	trace *obs.Tracer

	// Optional spatial interference index kept in lockstep with the
	// timeline, attached via AttachSpatial.
	spatial *spatial.Index

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
	// Repair describes what the forest repair had to do.
	Repair route.RepairStats
	// Detached is the number of nodes currently attached to no gateway tree
	// (dead nodes included).
	Detached int
}

// Events returns the total number of events in the batch.
func (c *Change) Events() int {
	return len(c.Failed) + len(c.Recovered) + len(c.Moved)
}

// NewWorld builds a world over an exclusively-owned network and its routing
// forest, pre-generating the full event timeline from cfg.
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
	isGW := make([]bool, n)
	for _, g := range w.gateways {
		isGW[g] = true
	}

	if cfg.Script != nil {
		w.timeline = append([]Event(nil), cfg.Script...)
		sortEvents(w.timeline)
		for _, e := range w.timeline {
			if e.Node < 0 || e.Node >= n {
				return nil, fmt.Errorf("dynam: scripted event for node %d out of range", e.Node)
			}
			switch e.Kind {
			case Fail, Recover, Move:
			default:
				return nil, fmt.Errorf("dynam: scripted event for node %d has unknown kind %v", e.Node, e.Kind)
			}
		}
		return w, nil
	}

	var ev []Event
	for u := 0; u < n; u++ {
		if cfg.FailRate > 0 && (cfg.FailGateways || !isGW[u]) {
			ev = generateChurn(cfg, u, ev)
		}
		if cfg.Mobility != nil && !isGW[u] {
			ev = generateMoves(cfg, u, net.Nodes[u].Pos, net.Region, ev)
		}
	}
	sortEvents(ev)
	w.timeline = ev
	return w, nil
}

// AttachSpatial registers a spatial interference index the world keeps in
// lockstep with the deployment: every Fail, Recover and Move event is
// forwarded as the index's bucket-local RemoveNode/RestoreNode/MoveNode
// update, mirroring the channel's targeted row/column invalidation. The
// index must describe the same deployment state the world currently holds
// (topo.Network.SpatialEngine over the world's network does). Pass nil to
// detach.
func (w *World) AttachSpatial(idx *spatial.Index) { w.spatial = idx }

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
	if w.next >= len(w.timeline) {
		return 0, false
	}
	return w.timeline[w.next].At, true
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
// Change, or nil when no event was due. Events mutate the channel with
// targeted row/column invalidation; the graphs are refreshed and the forest
// repaired once per batch.
func (w *World) AdvanceTo(t des.Time) (*Change, error) {
	if w.next >= len(w.timeline) || w.timeline[w.next].At > t {
		return nil, nil
	}
	ch := &Change{}
	w.changed = w.changed[:0]
	batch := make([]int, 0, 8) // event nodes; re-marked against the new graphs
	for w.next < len(w.timeline) && w.timeline[w.next].At <= t {
		e := w.timeline[w.next]
		w.next++
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

	forest, stats, err := w.forest.Repair(w.net.Comm, w.AliveGateways(), w.alive, w.changed, nil)
	if err != nil {
		return nil, fmt.Errorf("dynam: route repair: %w", err)
	}
	for _, u := range w.changed {
		w.changedSeen[u] = false
	}
	w.forest = forest
	w.links = forest.Links()
	ch.Repair = stats
	ch.Detached = forest.NumDetached()
	w.publishChange(ch)
	return ch, nil
}
