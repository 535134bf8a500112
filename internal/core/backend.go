package core

import (
	"errors"
	"fmt"

	"scream/internal/des"
	"scream/internal/graph"
	"scream/internal/phys"
)

// ErrSensDisconnected reports that the sensitivity graph is disconnected
// among the participating nodes, so a SCREAM flood cannot saturate and no
// distributed control decision can be made.
var ErrSensDisconnected = errors.New("core: sensitivity graph disconnected among alive nodes (ID = inf); SCREAM cannot work")

// Backend executes the protocols' physical-layer primitives and accounts for
// the time they consume. Two implementations exist: the IdealBackend below
// (direct SINR evaluation, used for schedule-quality experiments, where the
// paper assumes SCREAM detection is reliable at adequate SMBytes), and the
// packet-level radio backend in internal/radio (skewed transmission windows
// and energy detection, used for validation).
type Backend interface {
	// NumNodes returns the number of nodes in the network.
	NumNodes() int
	// Scream runs one full SCREAM primitive (K slots): every node i with
	// vars[i] == true screams in the first slot; listeners that detect
	// activity relay in subsequent slots. It returns each node's final
	// relay value — the network-wide OR when K >= ID(G_S). The returned
	// slice is read-only and only valid until the next Scream call
	// (implementations may return a slice they own).
	Scream(vars []bool) []bool
	// HandshakeSlot runs one data + ACK handshake slot for all the given
	// links concurrently and reports per-link two-way success. The
	// returned slice is only valid until the next HandshakeSlot call
	// (implementations may reuse it).
	HandshakeSlot(links []phys.Link) []bool
	// Elapsed returns the total simulated time consumed so far.
	Elapsed() des.Time
}

// RunScreamSlots is the SCREAM relay loop shared by backends: k slots; in
// each slot every relaying node screams and every detecting listener starts
// relaying. slot must return, for each node, whether that node detected
// channel activity in the slot (values for screaming nodes are ignored).
func RunScreamSlots(k int, vars []bool, slot func(screamers []bool) []bool) []bool {
	relay := make([]bool, len(vars))
	copy(relay, vars)
	for s := 0; s < k; s++ {
		det := slot(relay)
		for i, d := range det {
			if d && !relay[i] {
				relay[i] = true
			}
		}
	}
	return relay
}

// IdealBackend evaluates the primitives directly against the physical
// interference model: handshakes via the reference
// phys.Channel.HandshakeOutcome (what the packet-level radio backend
// approximates) and SCREAM detection via aggregate-energy carrier sensing
// over the sensitivity graph. In Fast mode (the default), the SCREAM result
// is computed as the plain OR of the inputs, which is exact whenever
// K >= ID(G_S) — the precondition the constructor enforces; strict mode
// runs the slot-by-slot relay flood instead. On a fast-mode backend the
// protocol loop settles SCREAMs, elections and handshakes itself and bills
// them here (bill, billHandshake), so HandshakeSlot is what strict mode and
// every wrapper run: an implementation independent of the loop's.
type IdealBackend struct {
	ch      *phys.Channel
	sens    *graph.Graph // the sensitivity graph: who hears whom
	k       int
	strict  bool
	elapsed des.Time
	// screamCost is what one SCREAM primitive bills: k slots; hsCost is
	// what one handshake slot bills.
	screamCost, hsCost des.Time

	screams    int // SCREAM primitives run
	handshakes int // handshake slots run

	// Fast-mode SCREAM results: every node ends with the same OR, so
	// Scream returns one of these two read-only length-n slices. They are
	// never written after construction, so clones share them.
	allFalse, allTrue []bool
}

// NewIdealBackend builds an ideal backend. sens is the sensitivity graph
// (who hears whom); k is the SCREAM length in slots, and 0 derives it as the
// interference diameter ID of sens. Unless strict is set, k must be at least
// ID so that the fast OR shortcut is exact.
func NewIdealBackend(ch *phys.Channel, sens *graph.Graph, k int, timing Timing, strict bool) (*IdealBackend, error) {
	if sens.NumNodes() != ch.NumNodes() {
		return nil, fmt.Errorf("core: sensitivity graph has %d nodes, channel %d", sens.NumNodes(), ch.NumNodes())
	}
	id := -1
	if k == 0 || !strict {
		if id = sens.Diameter(); id < 0 {
			return nil, fmt.Errorf("core: sensitivity graph is not strongly connected (ID = inf); SCREAM cannot work")
		}
		if k == 0 {
			k = id
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: SCREAM length k must be positive, got %d", k)
	}
	if k < id {
		return nil, fmt.Errorf("core: k = %d is below the interference diameter %d; use strict mode to observe the failure", k, id)
	}
	return newIdealBackend(ch, sens, k, timing, strict), nil
}

// NewIdealBackendAmong builds an ideal backend for a network where only the
// nodes with alive[u] true participate: failed radios hold no sensitivity
// edges (the topology-dynamics layer silences them), so the full-graph
// strong-connectivity check of NewIdealBackend can never pass. The SCREAM
// length used is max(kFloor, diameter among alive nodes, 1) — the bound
// SCREAM actually needs, since dead nodes neither scream nor relay and no
// live protocol state depends on their view; kFloor only ever raises it.
// When the alive sensitivity graph is disconnected the error wraps
// ErrSensDisconnected. The fast OR shortcut stays exact for every
// participating node.
func NewIdealBackendAmong(ch *phys.Channel, sens *graph.Graph, alive []bool, kFloor int, timing Timing) (*IdealBackend, error) {
	if sens.NumNodes() != ch.NumNodes() {
		return nil, fmt.Errorf("core: sensitivity graph has %d nodes, channel %d", sens.NumNodes(), ch.NumNodes())
	}
	if len(alive) != ch.NumNodes() {
		return nil, fmt.Errorf("core: %d alive flags for %d nodes", len(alive), ch.NumNodes())
	}
	id := sens.DiameterAmong(alive)
	if id < 0 {
		return nil, ErrSensDisconnected
	}
	// Degenerate single-participant networks still pay one slot.
	return newIdealBackend(ch, sens, max(kFloor, id, 1), timing, false), nil
}

// newIdealBackend builds a backend over a SCREAM length k its caller has
// validated.
func newIdealBackend(ch *phys.Channel, sens *graph.Graph, k int, timing Timing, strict bool) *IdealBackend {
	n := ch.NumNodes()
	outs := make([]bool, 2*n)
	for i := n; i < 2*n; i++ {
		outs[i] = true
	}
	return &IdealBackend{ch: ch, sens: sens, k: k, strict: strict,
		screamCost: des.Time(k) * timing.ScreamSlot(), hsCost: timing.HandshakeSlot(),
		allFalse: outs[:n:n], allTrue: outs[n:]}
}

// NumNodes implements Backend.
func (b *IdealBackend) NumNodes() int { return b.ch.NumNodes() }

// K returns the SCREAM length in slots.
func (b *IdealBackend) K() int { return b.k }

// Scream implements Backend.
func (b *IdealBackend) Scream(vars []bool) []bool {
	b.bill(1)
	if !b.strict {
		// K >= ID and the sensitivity graph is strongly connected, so the
		// flood saturates: every node ends with the OR of all inputs.
		for _, v := range vars {
			if v {
				return b.allTrue
			}
		}
		return b.allFalse
	}
	return RunScreamSlots(b.k, vars, func(screamers []bool) []bool {
		// v detects activity when any u with edge u->v screams.
		det := make([]bool, len(screamers))
		for u, screams := range screamers {
			if screams {
				for _, v := range b.sens.Neighbors(u) {
					det[v] = true
				}
			}
		}
		return det
	})
}

// bill charges m SCREAM primitives. The fast paths — Scream itself and the
// protocol loop's word-tested SCREAMs and elections — settle SCREAMs
// without flooding and bill them here, at the k slots each flood would
// take.
func (b *IdealBackend) bill(m int) {
	b.screams += m
	b.elapsed += des.Time(m) * b.screamCost
}

// billHandshake charges one handshake slot: HandshakeSlot's, and the
// protocol loop's when it settles a fast-mode step on its own slot state.
func (b *IdealBackend) billHandshake() {
	b.handshakes++
	b.elapsed += b.hsCost
}

// Clone returns a fresh backend sharing the immutable channel, sensitivity
// graph and costs but with zeroed counters and elapsed time. It lets
// callers that run many protocol instances over one deployment (the
// flow-epoch schedulers) skip re-validating the sensitivity graph on every
// run.
func (b *IdealBackend) Clone() *IdealBackend {
	c := *b
	c.elapsed, c.screams, c.handshakes = 0, 0, 0
	return &c
}

// HandshakeSlot implements Backend with the reference
// phys.Channel.HandshakeOutcome.
func (b *IdealBackend) HandshakeSlot(links []phys.Link) []bool {
	b.billHandshake()
	return b.ch.HandshakeOutcome(links)
}

// Elapsed implements Backend.
func (b *IdealBackend) Elapsed() des.Time { return b.elapsed }

// ScreamCount returns the number of SCREAM primitives executed.
func (b *IdealBackend) ScreamCount() int { return b.screams }

// HandshakeCount returns the number of handshake slots executed.
func (b *IdealBackend) HandshakeCount() int { return b.handshakes }
