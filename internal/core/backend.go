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
// interference model: handshakes via the incremental phys.SlotState engine
// (equivalent to phys.Channel.HandshakeOutcome, which stays as the reference
// implementation and is what the packet-level radio backend approximates)
// and SCREAM detection via aggregate-energy carrier sensing over the
// sensitivity graph. In Fast mode (the default), the SCREAM result is
// computed as the plain OR of the inputs, which is exact whenever
// K >= ID(G_S) — the precondition the constructor enforces — and
// LeaderElect settles elections in one pass; strict mode runs the
// slot-by-slot relay flood and the bitwise election instead.
type IdealBackend struct {
	ch      *phys.Channel
	sensAdj [][]int // sensitivity-graph in-neighbors: who node v can hear
	k       int
	timing  Timing
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

	// Incremental handshake engine. The protocols build each slot by
	// repeatedly handshaking a slowly-mutating link set (the allocated
	// links persist, each step tentatively admits a few actives and evicts
	// the ones that failed), so the backend diffs each request against the
	// previous one and replays only the difference on a phys.SlotState:
	// O(k·Δ) per step instead of HandshakeOutcome's O(k²). Every protocol
	// link is owned by its From node (one link per owner), so all engine
	// bookkeeping is indexed by From; requests that violate that invariant
	// fall back to the reference Channel.HandshakeOutcome.
	slot       *phys.SlotState
	prev       []phys.Link // link set of the previous HandshakeSlot call
	lastAdds   []phys.Link // links tentatively added by that call
	isLastAdd  []bool      // by From: link was tentatively added by that call
	member     []bool      // by From: owner's link is currently in the slot
	memberLink []phys.Link // by From: the member link itself
	posIdx     []int       // by From: the member link's slot admission index
	wantCall   []int       // by From: stamp marking membership in the current request
	wantLink   []phys.Link // by From: the requested link for this call
	call       int         // HandshakeSlot invocation counter for the stamps
	outBuf     []bool      // result scratch, valid until the next HandshakeSlot call
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
	// In-neighbors: v detects activity when any u with edge u->v screams.
	n := ch.NumNodes()
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for _, v := range sens.Neighbors(u) {
			adj[v] = append(adj[v], u)
		}
	}
	outs := make([]bool, 2*n)
	for i := n; i < 2*n; i++ {
		outs[i] = true
	}
	return &IdealBackend{ch: ch, sensAdj: adj, k: k, timing: timing, strict: strict,
		screamCost: des.Time(k) * timing.ScreamSlot(), hsCost: timing.HandshakeSlot(),
		allFalse: outs[:n:n], allTrue: outs[n:]}, nil
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
	k := kFloor
	if k < id {
		k = id
	}
	if k < 1 {
		k = 1 // degenerate single-participant networks still pay one slot
	}
	b, err := NewIdealBackend(ch, sens, k, timing, true)
	if err != nil {
		return nil, err
	}
	b.strict = false // fast OR is exact: k covers the alive diameter
	return b, nil
}

// NumNodes implements Backend.
func (b *IdealBackend) NumNodes() int { return len(b.sensAdj) }

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
		det := make([]bool, len(screamers))
		for v := range det {
			if screamers[v] {
				continue
			}
			for _, u := range b.sensAdj[v] {
				if screamers[u] {
					det[v] = true
					break
				}
			}
		}
		return det
	})
}

// bill charges m SCREAM primitives. The fast paths — Scream itself, the
// one-pass election and the protocol loop's word-tested SCREAMs — settle
// SCREAMs without flooding and bill them here, at the k slots each flood
// would take.
func (b *IdealBackend) bill(m int) {
	b.screams += m
	b.elapsed += des.Time(m) * b.screamCost
}

// Clone returns a fresh backend sharing the immutable channel, sensitivity
// adjacency and timing but with zeroed counters, elapsed time and engine
// state. It lets callers that run many protocol instances over one
// deployment (the flow-epoch schedulers) skip re-validating the sensitivity
// graph on every run.
func (b *IdealBackend) Clone() *IdealBackend {
	return &IdealBackend{ch: b.ch, sensAdj: b.sensAdj, k: b.k, timing: b.timing, strict: b.strict,
		screamCost: b.screamCost, hsCost: b.hsCost, allFalse: b.allFalse, allTrue: b.allTrue}
}

// HandshakeSlot implements Backend.
func (b *IdealBackend) HandshakeSlot(links []phys.Link) []bool {
	b.handshakes++
	b.elapsed += b.hsCost
	return b.incrementalOutcome(links)
}

// resetEngine discards all incremental handshake state; the next call
// rebuilds from scratch.
func (b *IdealBackend) resetEngine() {
	if b.slot != nil {
		b.slot.Reset()
	}
	for _, l := range b.prev {
		b.member[l.From] = false
	}
	// Links admitted by a partially-completed call are tracked in lastAdds
	// but possibly not yet in prev, so clear member for them too.
	for _, l := range b.lastAdds {
		b.member[l.From] = false
		b.isLastAdd[l.From] = false
	}
	b.prev = b.prev[:0]
	b.lastAdds = b.lastAdds[:0]
}

// wanted reports whether l is part of the current request.
func (b *IdealBackend) wanted(l phys.Link) bool {
	return b.wantCall[l.From] == b.call && b.wantLink[l.From] == l
}

// incrementalOutcome evaluates one handshake slot through the SlotState
// engine. Decisions are identical to phys.Channel.HandshakeOutcome on the
// same set (see TestIdealBackendHandshakeMatchesNaive): the engine only
// changes how the interference sums are accumulated, not the inequalities.
func (b *IdealBackend) incrementalOutcome(links []phys.Link) []bool {
	if b.slot == nil {
		n := b.ch.NumNodes()
		b.slot = phys.NewSlotState(b.ch)
		b.isLastAdd = make([]bool, n)
		b.member = make([]bool, n)
		b.memberLink = make([]phys.Link, n)
		b.posIdx = make([]int, n)
		b.wantCall = make([]int, n)
		b.wantLink = make([]phys.Link, n)
	}
	b.call++
	for _, l := range links {
		if b.wantCall[l.From] == b.call {
			// Two links with one owner cannot occur in a protocol run; for
			// such requests fall back to the reference implementation
			// rather than complicating the engine.
			b.resetEngine()
			return b.ch.HandshakeOutcome(links)
		}
		b.wantCall[l.From] = b.call
		b.wantLink[l.From] = l
	}

	// Diff against the previous request.
	removed := 0
	removedOnlyTentative := true
	for _, l := range b.prev {
		if b.wanted(l) {
			continue
		}
		removed++
		if !b.isLastAdd[l.From] {
			removedOnlyTentative = false
		}
	}
	switch {
	case removed == 0:
		// Pure growth: keep the slot as is.
	case removedOnlyTentative:
		// Every evicted link was tentatively admitted by the previous call
		// (a discarded active): roll the tentative batch back exactly and
		// re-admit the batch members that were kept.
		b.slot.Rollback()
		for _, l := range b.lastAdds {
			b.member[l.From] = false
		}
		for _, l := range links {
			if b.isLastAdd[l.From] && b.memberLink[l.From] == l {
				b.admit(l)
			}
		}
	default:
		// A sealed slot or another wholesale change: rebuild from scratch,
		// which also keeps rounding drift bounded to a single round.
		b.slot.Reset()
		for _, l := range b.prev {
			b.member[l.From] = false
		}
	}

	// Tentatively admit the newcomers; they form the batch the next call
	// may roll back.
	for _, l := range b.lastAdds {
		b.isLastAdd[l.From] = false
	}
	b.lastAdds = b.lastAdds[:0]
	b.slot.Mark()
	for _, l := range links {
		if b.member[l.From] {
			if b.memberLink[l.From] == l {
				continue
			}
			// The owner's link changed identity between calls — not a
			// protocol access pattern; use the reference implementation.
			b.resetEngine()
			return b.ch.HandshakeOutcome(links)
		}
		b.admit(l)
		b.lastAdds = append(b.lastAdds, l)
		b.isLastAdd[l.From] = true
	}
	b.prev = append(b.prev[:0], links...)

	slotOut := b.slot.Outcomes()
	if cap(b.outBuf) < len(links) {
		b.outBuf = make([]bool, len(links))
	}
	out := b.outBuf[:len(links)]
	for i, l := range links {
		out[i] = slotOut[b.posIdx[l.From]]
	}
	return out
}

// admit adds l to the slot and records its owner-indexed bookkeeping.
func (b *IdealBackend) admit(l phys.Link) {
	b.member[l.From] = true
	b.memberLink[l.From] = l
	b.posIdx[l.From] = b.slot.Len()
	b.slot.Add(phys.NewCandidate(b.ch, l))
}

// Elapsed implements Backend.
func (b *IdealBackend) Elapsed() des.Time { return b.elapsed }

// ScreamCount returns the number of SCREAM primitives executed.
func (b *IdealBackend) ScreamCount() int { return b.screams }

// HandshakeCount returns the number of handshake slots executed.
func (b *IdealBackend) HandshakeCount() int { return b.handshakes }
