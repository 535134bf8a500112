package phys

// Candidate is a link with its exact data and ACK signal powers: the
// favorable sides of its two SINR inequalities. A schedule build computes
// each link's candidate once, with NewCandidate, and probes every slot with
// it, so no admission test recomputes a signal (on a non-dense engine each
// SignalMW is a path-loss evaluation). A SlotState must only be given
// candidates built on the engine it is bound to.
type Candidate struct {
	Link
	DataMW float64 // SignalMW(From, To): the data transmission at its receiver
	AckMW  float64 // SignalMW(To, From): the ACK at the data sender
}

// NewCandidate returns l with its exact signal powers under e. On the dense
// *Channel it computes the two received powers SignalMW would return
// directly, from the one gain the symmetric matrix holds for the pair,
// sparing two interface calls per link.
func NewCandidate(e Engine, l Link) Candidate {
	if c, ok := e.(*Channel); ok {
		g := c.Gain(l.From, l.To)
		return Candidate{Link: l, DataMW: float64(c.txPowerMW[l.From] * g), AckMW: float64(c.txPowerMW[l.To] * g)}
	}
	return Candidate{Link: l, DataMW: e.SignalMW(l.From, l.To), AckMW: e.SignalMW(l.To, l.From)}
}

// slotLink is the record SlotState keeps per admitted link, 56 bytes: the
// candidate with its endpoints narrowed to int32, the endpoints' TX powers,
// and the running interference sums at its two receivers. The powers are
// the factors of the terms the link's data and ACK senders add at other
// receivers; the dense path keeps them beside the endpoints it reads anyway
// (other engines leave them 0), so a term costs a gain load and a
// multiplication, not a power load as well. An endpoint that reaches a
// record indexed its engine already, and no engine holds 2^31 nodes (the
// dense one would need 2^65 bytes), so int32 loses nothing.
type slotLink struct {
	from, to int32
	dataMW   float64 // the candidate's DataMW
	ackMW    float64 // the candidate's AckMW
	fromMW   float64 // TX power of from (dense path)
	toMW     float64 // TX power of to (dense path)
	dataSum  float64 // interference at to from the other data senders
	ackSum   float64 // interference at from from the other ACK senders
}

// link returns the record's link.
func (m *slotLink) link() Link { return Link{From: int(m.from), To: int(m.to)} }

// SlotState is the incremental SINR feasibility engine: it maintains, for
// one slot under construction, the running data-sub-slot and ACK-sub-slot
// interference sums of every admitted link, over an interference Engine.
// CanAdd and Add are O(k) for a slot holding k links, against the O(k^2) of
// re-running Channel.FeasibleSet from scratch; that naive routine remains
// the reference implementation the property tests compare against.
// TentativeSlot adds what only the protocols' handshake slot needs:
// Mark/Rollback and the handshake outcomes.
//
// Two code paths serve the two engine families. When the engine is the
// dense *Channel, every interference term is computed from the channel's
// gain matrix directly (the ch field), as the product RxPowerMW takes: the
// original hot path, preserved for both determinism and the benchmark gate.
// Any other Engine goes through InterfMW for interference terms, so a
// conservative engine (one that over-estimates InterfMW) only ever rejects
// more than the dense path. On both paths the signal sides come from the
// candidates.
//
// The sums are accumulated incrementally (in admission order) rather than
// recomputed per query (in index order), so individual float64 sums may
// differ from the naive path in the last ulp; every admission margin in the
// model is orders of magnitude wider, and the property tests fuzz
// add/rollback sequences to assert the decisions always agree.
//
// A SlotState is not safe for concurrent use.
type SlotState struct {
	eng Engine
	ch  *Channel // dense fast path: the engine as a *Channel; nil for other engines

	beta  float64
	noise float64

	links []slotLink // the admitted links in admission order

	ignoreAck bool

	// Inline storage backing links while the slot is small: greedy
	// schedulers build hundreds of mostly 1-4 link slots per schedule, which
	// this keeps entirely off the heap. Because links aliases this storage,
	// an initialized SlotState must not be copied.
	linksBuf [4]slotLink
}

// Init (re-)binds s to engine e as an empty slot; when e is the dense
// *Channel the matrix fast path is selected. dataOnly disables CanAdd's
// ACK sub-slot inequality. The zero SlotState is ready for Init, so
// callers that build many slots (greedy schedulers construct one per
// schedule slot) can hold them in slabs without a heap allocation per slot.
func (s *SlotState) Init(e Engine, dataOnly bool) {
	var grown []slotLink
	if s.eng != nil {
		// Re-initialization: clear everything a previous life may have
		// dirtied. Fresh (zero-value) states — e.g. slab-allocated slots in
		// the greedy schedulers — skip this full-struct write. A links
		// buffer a full slot grew on the heap is kept, so a greedy builder
		// reusing its slots reallocates nothing.
		if cap(s.links) > len(s.linksBuf) {
			grown = s.links[:0]
		}
		*s = SlotState{}
	}
	s.links = s.linksBuf[:0]
	if grown != nil {
		s.links = grown
	}
	s.eng = e
	s.ch, _ = e.(*Channel)
	s.beta = e.Beta()
	s.noise = e.NoiseMW()
	s.ignoreAck = dataOnly
}

// Len returns the number of links currently in the slot.
func (s *SlotState) Len() int { return len(s.links) }

// AppendLinks appends the links currently in the slot, in admission order,
// to dst and returns the extended slice.
func (s *SlotState) AppendLinks(dst []Link) []Link {
	for i := range s.links {
		dst = append(dst, s.links[i].link())
	}
	return dst
}

// CanAdd reports whether adding c keeps the slot feasible: c must not share
// an endpoint with any admitted link, c itself must clear both SINR
// inequalities against the current slot, and every admitted link must
// survive c's added data and ACK interference. For a feasible current slot
// this is exactly FeasibleSet(Links() + c.Link) on the dense engine, and a
// conservative under-approximation of it on an over-estimating engine. O(k).
func (s *SlotState) CanAdd(c Candidate) bool {
	if m := slotMetrics.Load(); m != nil {
		m.canAdd.Inc()
	}
	if c.From == c.To {
		return false
	}
	beta, noise := s.beta, s.noise
	if ch := s.ch; ch != nil {
		// The gains are symmetric, so every term reads row c.From or row
		// c.To (see Add).
		g, n := ch.gain, len(ch.txPowerMW)
		fromRow, toRow := c.From*n, c.To*n
		// The new link's own inequalities (and primary conflicts), first: on
		// the dominant path — a greedy scheduler probing successive full slots
		// — this rejects after 2 terms per admitted link.
		dataInterf, ackInterf := 0.0, 0.0
		for i := range s.links {
			m := &s.links[i]
			if c.From == int(m.from) || c.From == int(m.to) || c.To == int(m.from) || c.To == int(m.to) {
				return false
			}
			dataInterf += float64(m.fromMW * g[toRow+int(m.from)])
			ackInterf += float64(m.toMW * g[fromRow+int(m.to)])
		}
		if c.DataMW < beta*(noise+dataInterf) {
			return false
		}
		if !s.ignoreAck && c.AckMW < beta*(noise+ackInterf) {
			return false
		}
		// Existing links under the extra interference from c.
		fromMW, toMW := ch.txPowerMW[c.From], ch.txPowerMW[c.To]
		for i := range s.links {
			m := &s.links[i]
			if m.dataMW < beta*(noise+m.dataSum+float64(fromMW*g[fromRow+int(m.to)])) {
				return false
			}
			if !s.ignoreAck && m.ackMW < beta*(noise+m.ackSum+float64(toMW*g[toRow+int(m.from)])) {
				return false
			}
		}
		return true
	}
	// Through the interface every term costs a call, so the cheapest exact
	// test runs first: the integer primary-conflict scan, then the new link's
	// data and ACK sums, each rejected as soon as a prefix fails (see
	// clears), then the members.
	for i := range s.links {
		m := &s.links[i]
		from, to := int(m.from), int(m.to)
		if c.From == from || c.From == to || c.To == from || c.To == to {
			return false
		}
	}
	if !s.clears(c.DataMW, c.To, false) {
		return false
	}
	if !s.ignoreAck && !s.clears(c.AckMW, c.From, true) {
		return false
	}
	eng := s.eng
	for i := range s.links {
		m := &s.links[i]
		if m.dataMW < beta*(noise+m.dataSum+eng.InterfMW(c.From, int(m.to))) {
			return false
		}
		if !s.ignoreAck && m.ackMW < beta*(noise+m.ackSum+eng.InterfMW(c.To, int(m.from))) {
			return false
		}
	}
	return true
}

// clears reports whether signal at node at clears beta against the noise
// plus the interference of the members' data senders (ack false) or ACK
// senders (ack true), summed in admission order exactly as Add sums it. The
// test runs after every term, and a failing prefix settles the answer:
// every term is finite and non-negative and rounded float addition is
// monotone, so each partial sum is at most the full sum, and a signal below
// beta times the noise plus a prefix is below beta times the noise plus the
// whole.
func (s *SlotState) clears(signal float64, at int, ack bool) bool {
	eng, beta, noise := s.eng, s.beta, s.noise
	if signal < beta*noise {
		return false
	}
	interf := 0.0
	for i := range s.links {
		src := int(s.links[i].from)
		if ack {
			src = int(s.links[i].to)
		}
		interf += eng.InterfMW(src, at)
		if signal < beta*(noise+interf) {
			return false
		}
	}
	return true
}

// Add inserts c into the slot, updating every running sum in O(k). Unlike
// CanAdd, Add never rejects: the protocols tentatively admit links that may
// conflict or fail their handshake (TentativeSlot.Outcomes reports which),
// and greedy callers are expected to gate on CanAdd themselves.
func (s *SlotState) Add(c Candidate) {
	if m := slotMetrics.Load(); m != nil {
		m.adds.Inc()
	}
	rec := slotLink{from: int32(c.From), to: int32(c.To), dataMW: c.DataMW, ackMW: c.AckMW}
	if ch := s.ch; ch != nil {
		// Each member m and c exchange four terms, and by symmetry they
		// share two gains: g(c.From, m.To) carries c's data to m.To and
		// m's ACK to c.From, and g(c.To, m.From) carries c's ACK to m.From
		// and m's data to c.To. Both sit in c's two rows, so a member costs
		// two gain loads from rows already in cache.
		g, n := ch.gain, len(ch.txPowerMW)
		fromRow, toRow := c.From*n, c.To*n
		rec.fromMW, rec.toMW = ch.txPowerMW[c.From], ch.txPowerMW[c.To]
		for i := range s.links {
			m := &s.links[i]
			gFrom, gTo := g[fromRow+int(m.to)], g[toRow+int(m.from)]
			m.dataSum += float64(rec.fromMW * gFrom)
			m.ackSum += float64(rec.toMW * gTo)
			rec.dataSum += float64(m.fromMW * gTo)
			rec.ackSum += float64(m.toMW * gFrom)
		}
	} else {
		eng := s.eng
		for i := range s.links {
			m := &s.links[i]
			from, to := int(m.from), int(m.to)
			m.dataSum += eng.InterfMW(c.From, to)
			m.ackSum += eng.InterfMW(c.To, from)
			rec.dataSum += eng.InterfMW(from, c.To)
			rec.ackSum += eng.InterfMW(to, c.From)
		}
	}
	s.links = append(s.links, rec)
}

// Reset empties the slot for reuse.
func (s *SlotState) Reset() { s.links = s.links[:0] }

// TentativeSlot is a SlotState with the protocols' tentative admission:
// mark the slot, admit a step's active links whatever they conflict with,
// evaluate their concurrent handshakes with Outcomes, and roll the batch
// back. The protocol loop holds one for its handshake slot; greedy
// schedulers fill plain SlotStates and carry none of this state. Init, Add
// and Reset replace SlotState's, which must not be called on a
// TentativeSlot directly.
//
// A TentativeSlot is not safe for concurrent use.
type TentativeSlot struct {
	SlotState

	// busy[u] counts slot links with u as an endpoint. Only Outcomes needs
	// it (conflict detection over sets that may hold conflicting links), so
	// its first call allocates it.
	busy []int32

	// Single-level undo support (Mark/Rollback). Between a Mark and its
	// Rollback, Adds append records and raise the sums of the records
	// before them, and nothing else changes: a mark keeps the slot's length
	// and those records' sums, dataSum and ackSum in turn.
	marked int
	saved  []float64

	// Scratch buffers for Outcomes.
	dataOK []bool
	out    []bool
	failed []int
}

// Init (re-)binds t to engine e as an empty slot with no Mark outstanding
// (see SlotState.Init).
func (t *TentativeSlot) Init(e Engine, dataOnly bool) {
	t.SlotState.Init(e, dataOnly)
	t.busy = nil // e may model another node count; Outcomes sizes it anew
	t.marked = -1
}

// Add inserts c into the slot (see SlotState.Add) and counts its endpoints.
func (t *TentativeSlot) Add(c Candidate) {
	t.SlotState.Add(c)
	if t.busy != nil {
		t.busy[c.From]++
		t.busy[c.To]++
	}
}

// Grow makes room for k more links, so that the next k Adds do not
// reallocate. The protocol loop calls it with a channel phase's first
// batch, which admits every owner at once.
func (t *TentativeSlot) Grow(k int) {
	if cap(t.links)-len(t.links) < k {
		t.links = append(make([]slotLink, 0, len(t.links)+k), t.links...)
	}
}

// Mark snapshots the current slot so a later Rollback can undo any Adds
// performed after it — the protocols' tentative handshake pattern: mark,
// admit the step's active links, evaluate Outcomes, and roll back if the
// slot vetoes. Restoration is exact (the sums are copied, not re-derived).
// Only one mark is outstanding at a time; a new Mark replaces the previous
// one, and Reset invalidates it.
func (t *TentativeSlot) Mark() {
	t.marked = len(t.links)
	if need := 2 * len(t.links); cap(t.saved) < need {
		t.saved = make([]float64, 0, max(need, 2*cap(t.saved)))
	}
	t.saved = t.saved[:0]
	for i := range t.links {
		t.saved = append(t.saved, t.links[i].dataSum, t.links[i].ackSum)
	}
}

// Rollback restores the slot to the state captured by the last Mark. It
// panics if no valid mark is outstanding.
func (t *TentativeSlot) Rollback() {
	if t.marked < 0 || t.marked > len(t.links) {
		panic("phys: TentativeSlot.Rollback without a valid Mark")
	}
	if m := slotMetrics.Load(); m != nil {
		m.rollbacks.Inc()
	}
	if t.busy != nil {
		for _, l := range t.links[t.marked:] {
			t.busy[l.from]--
			t.busy[l.to]--
		}
	}
	t.links = t.links[:t.marked]
	for i := range t.links {
		t.links[i].dataSum, t.links[i].ackSum = t.saved[2*i], t.saved[2*i+1]
	}
}

// Reset empties the slot for reuse and invalidates any outstanding Mark.
func (t *TentativeSlot) Reset() {
	if t.busy != nil {
		for _, l := range t.links {
			t.busy[l.from]--
			t.busy[l.to]--
		}
	}
	t.SlotState.Reset()
	t.marked = -1
}

// Outcomes evaluates the two-way handshake of every link currently in the
// slot, concurrently, exactly like Channel.HandshakeOutcome would for
// Links(): data decodes iff its SINR clears beta under all senders'
// interference; only decoding receivers ACK, and the handshake succeeds iff
// the ACK SINR clears beta too. Links with primary conflicts always fail.
// The returned slice is indexed like Links() and is reused by subsequent
// calls.
//
// When every link decodes its data (the common case for slots built by
// CanAdd-gated admission), the evaluation is O(k) straight off the records;
// each data failure costs one O(k) correction pass for the silent ACK.
func (t *TentativeSlot) Outcomes() []bool {
	k := len(t.links)
	if cap(t.out) < k {
		t.out = make([]bool, k)
		t.dataOK = make([]bool, k)
	}
	out := t.out[:k]
	dataOK := t.dataOK[:k]
	t.failed = t.failed[:0]
	beta, noise := t.beta, t.noise
	if t.busy == nil {
		t.busy = make([]int32, t.eng.NumNodes())
		for _, l := range t.links {
			t.busy[l.from]++
			t.busy[l.to]++
		}
	}

	// Data sub-slot. A primary-conflicted link never completes its
	// handshake (but its sender still radiates, which the running sums
	// already account for).
	for i := range t.links {
		l := &t.links[i]
		dataOK[i] = t.busy[l.from] <= 1 && t.busy[l.to] <= 1 && l.dataMW >= beta*(noise+l.dataSum)
		if !dataOK[i] {
			t.failed = append(t.failed, i)
		}
	}

	// ACK sub-slot: links whose data was not decoded stay silent, so their
	// contribution is deducted from the running all-receivers sums.
	ch, eng := t.ch, t.eng
	for i := range t.links {
		l := &t.links[i]
		if !dataOK[i] {
			out[i] = false
			continue
		}
		ackInterf := l.ackSum
		if ch != nil {
			// g(f.To, l.From) is, by symmetry, in row l.From.
			g, fromRow := ch.gain, int(l.from)*len(ch.txPowerMW)
			for _, j := range t.failed {
				f := &t.links[j]
				ackInterf -= float64(f.toMW * g[fromRow+int(f.to)])
			}
		} else {
			for _, j := range t.failed {
				ackInterf -= eng.InterfMW(int(t.links[j].to), int(l.from))
			}
		}
		out[i] = l.ackMW >= beta*(noise+ackInterf)
	}
	return out
}
