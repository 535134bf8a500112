package topo

// Topology dynamics: in-place network mutation for node mobility and churn.
// The methods here keep the three derived views of a deployment — the
// channel's gain matrix, the communication graph and the sensitivity
// graph — consistent with the node positions and radio states. Events are
// cheap to record: MoveNode and SetNodeUp only note the new position or
// state, and SetNodeDown zeroes the node's channel row in place. The next
// RefreshGraphs brings the channel up to date, recomputing each stale
// node's row once however often the node moved, and each pair of stale
// nodes once, before it derives the graphs.
//
// All mutation methods require exclusive access to the Network. Clone a
// shared deployment (e.g. one handed out by the experiment engine) before
// driving dynamics on it.

import (
	"fmt"

	"scream/internal/geom"
	"scream/internal/graph"
	"scream/internal/phys"
)

// dynState is the per-node state topology dynamics add to a network.
type dynState struct {
	// down[u] marks node u's radio as off; its channel gains are zero and it
	// holds no graph edges until SetNodeUp restores it.
	down []bool
	// stale[u] marks node u's channel row as out of date: the node moved or
	// came back up since the last RefreshGraphs. A down node is never stale.
	stale []bool
	// row is RefreshGraphs' gain-row buffer.
	row []float64
}

// dynamics returns the network's dynamics state, allocating it on first use.
func (n *Network) dynamics() *dynState {
	if n.dyn == nil {
		n.dyn = &dynState{down: make([]bool, len(n.Nodes)), stale: make([]bool, len(n.Nodes))}
	}
	return n.dyn
}

// Clone returns a copy of the network that can be mutated freely without
// affecting the original. Channel rows still pending a refresh stay pending
// in the copy. The shadowing draw and the graphs, which nothing writes
// (RefreshGraphs replaces the graphs whole), are shared.
func (n *Network) Clone() *Network {
	c := &Network{
		Nodes:    append([]Node(nil), n.Nodes...),
		Channel:  n.Channel.Clone(),
		Comm:     n.Comm,
		Sens:     n.Sens,
		Region:   n.Region,
		Params:   n.Params,
		shadowDB: n.shadowDB,
	}
	if n.dyn != nil {
		c.dyn = &dynState{
			down:  append([]bool(nil), n.dyn.down...),
			stale: append([]bool(nil), n.dyn.stale...),
		}
	}
	return c
}

// IsDown reports whether node u's radio is currently off.
func (n *Network) IsDown(u int) bool {
	return n.dyn != nil && n.dyn.down[u]
}

// pairGain is the gain between nodes u and v at their current positions,
// with the static shadowing draw: the expression phys.BuildGainMatrix
// evaluates for the pair.
func (n *Network) pairGain(u, v int) float64 {
	g := n.Params.PathLoss.Gain(n.Nodes[u].Pos.Dist(n.Nodes[v].Pos))
	if n.shadowDB != nil {
		g = phys.Shadowed(g, n.shadowDB[u*len(n.Nodes)+v])
	}
	return g
}

// MoveNode relocates node u to pos. The channel keeps u's old gains until
// the next RefreshGraphs recomputes its row, so a node moved several times
// between refreshes is evaluated once, at its last position.
func (n *Network) MoveNode(u int, pos geom.Point) error {
	if u < 0 || u >= len(n.Nodes) {
		return fmt.Errorf("topo: node %d out of range", u)
	}
	n.Nodes[u].Pos = pos
	// A down node's gains stay zero; SetNodeUp marks its row stale.
	if !n.IsDown(u) {
		n.dynamics().stale[u] = true
	}
	return nil
}

// SetNodeDown switches node u's radio off: its channel gains are zeroed at
// once, so it neither transmits nor senses, exactly as if it were absent.
func (n *Network) SetNodeDown(u int) error {
	if u < 0 || u >= len(n.Nodes) {
		return fmt.Errorf("topo: node %d out of range", u)
	}
	d := n.dynamics()
	if d.down[u] {
		return nil
	}
	d.down[u] = true
	d.stale[u] = false // a zero row is what the refresh would compute
	return n.Channel.RemoveNode(u)
}

// SetNodeUp switches node u's radio back on at its current position. Its
// gains stay zero until the next RefreshGraphs recomputes its row.
func (n *Network) SetNodeUp(u int) error {
	if u < 0 || u >= len(n.Nodes) {
		return fmt.Errorf("topo: node %d out of range", u)
	}
	if !n.IsDown(u) {
		return nil
	}
	n.dyn.down[u] = false
	n.dyn.stale[u] = true
	return nil
}

// RefreshGraphs brings the channel up to date with the positions and radio
// states MoveNode, SetNodeDown and SetNodeUp recorded since the last call,
// then derives the communication and sensitivity graphs from its received
// powers. Down nodes have zero gains and therefore no edges. Adjacency lists
// come out in ascending node order, the canonical order route repair's
// tie-breaking relies on. Build derives a new network's graphs with the
// same call.
//
// u -> v is a sensitivity edge when v senses u's transmission
// (RxPowerMW(u, v) >= CSThresholdMW), and u - v a communication link when
// both directions are up without interference (LinkUp). A first pass
// counts each node's edges so that each graph's array is sized exactly; a
// second pass fills the rows.
func (n *Network) RefreshGraphs() {
	n.refreshRows()
	nn := len(n.Nodes)
	ch := n.Channel
	cs := n.Params.CSThresholdMW
	sensOff := make([]int, nn+1)
	commOff := make([]int, nn+1)
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v++ {
			if v != u && ch.RxPowerMW(u, v) >= cs {
				sensOff[u+1]++
			}
		}
		for v := u + 1; v < nn; v++ {
			if ch.LinkUp(u, v) && ch.LinkUp(v, u) {
				commOff[u+1]++
				commOff[v+1]++
			}
		}
	}
	for u := 0; u < nn; u++ {
		sensOff[u+1] += sensOff[u]
		commOff[u+1] += commOff[u]
	}
	sens := make([]int, sensOff[nn])
	comm := make([]int, commOff[nn])
	// Sensitivity rows fill in order. A communication link lands in both of
	// its rows at their cursors commOff[u] and commOff[v]: row w gets its
	// lower neighbors while the lower rows fill, then its higher ones, so
	// each row ascends. The cursors end at the next row's start, and
	// shifting them up one restores the offsets.
	k := 0
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v++ {
			if v != u && ch.RxPowerMW(u, v) >= cs {
				sens[k] = v
				k++
			}
		}
		for v := u + 1; v < nn; v++ {
			if ch.LinkUp(u, v) && ch.LinkUp(v, u) {
				comm[commOff[u]] = v
				commOff[u]++
				comm[commOff[v]] = u
				commOff[v]++
			}
		}
	}
	copy(commOff[1:], commOff[:nn])
	commOff[0] = 0
	n.Sens = graph.FromCSR(sensOff, sens)
	n.Comm = graph.FromCSR(commOff, comm)
}

// refreshRows recomputes the channel row of every stale node, in ascending
// order, into one reused buffer. A pair of stale nodes is evaluated with the
// lower-numbered node's row; the higher one's row copies it back from the
// channel. Each pair's gain depends only on the two current positions and
// radio states, so the channel ends bit-identical to a fresh Build of the
// same state, whatever order the events came in.
func (n *Network) refreshRows() {
	d := n.dyn
	if d == nil {
		return
	}
	for u, stale := range d.stale {
		if !stale {
			continue
		}
		if d.row == nil {
			d.row = make([]float64, len(n.Nodes))
		}
		for v := range d.row {
			switch {
			case v == u || d.down[v]:
				d.row[v] = 0
			case v < u && d.stale[v]:
				d.row[v] = n.Channel.Gain(v, u)
			default:
				d.row[v] = n.pairGain(u, v)
			}
		}
		if err := n.Channel.MoveNode(u, d.row); err != nil {
			// The row has one entry per node and LogDistance gains are
			// never negative, so the channel cannot refuse it.
			panic(err)
		}
	}
	clear(d.stale)
}
