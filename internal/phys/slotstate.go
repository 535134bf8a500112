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
// *Channel it reads the two RX-matrix entries SignalMW would return
// directly, sparing two interface calls per link.
func NewCandidate(e Engine, l Link) Candidate {
	if c, ok := e.(*Channel); ok {
		rx, n := c.rx, len(c.txPowerMW)
		return Candidate{Link: l, DataMW: rx[l.From*n+l.To], AckMW: rx[l.To*n+l.From]}
	}
	return Candidate{Link: l, DataMW: e.SignalMW(l.From, l.To), AckMW: e.SignalMW(l.To, l.From)}
}

// slotLink is the record SlotState keeps per admitted link: the candidate
// and the running interference sums at its two receivers.
type slotLink struct {
	Candidate
	dataSum float64 // interference at To from the other data senders
	ackSum  float64 // interference at From from the other ACK senders
}

// SlotState is the incremental SINR feasibility engine: it maintains, for
// one slot under construction, the running data-sub-slot and ACK-sub-slot
// interference sums of every admitted link plus an endpoint-occupancy count
// per node, over an interference Engine. CanAdd and Add are O(k) for a slot
// holding k links, against the O(k^2) of re-running Channel.FeasibleSet (and
// O(k^2) per handshake evaluation via Channel.HandshakeOutcome) from
// scratch; those naive routines remain the reference implementations the
// property tests compare against.
//
// Two code paths serve the two engine families. When the engine is the
// dense *Channel, every interference term is read from the channel's flat
// cached RX-power matrix directly (the rx field) — the original hot path,
// preserved for both determinism and the benchmark gate. Any other Engine
// goes through InterfMW for interference terms, so a conservative engine
// (one that over-estimates InterfMW) only ever rejects more than the dense
// path. On both paths the signal sides come from the candidates.
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
	rx  []float64 // dense fast path: the channel's flat n*n RX matrix; nil for non-dense engines
	n   int

	beta  float64
	noise float64

	links []slotLink // the admitted links in admission order

	// busy[u] counts slot links with u as an endpoint. Only Outcomes needs
	// it (conflict detection over sets that may hold conflicting links), so
	// it is allocated lazily: greedy schedulers create thousands of
	// CanAdd/Add-only slots and never pay for it.
	busy []int32

	ignoreAck bool

	// Single-level undo support (Mark/Rollback).
	marked int
	saved  []slotLink

	// Scratch buffers for Outcomes.
	dataOK []bool
	out    []bool
	failed []int

	// Inline storage backing links while the slot is small: greedy
	// schedulers build hundreds of mostly 1-4 link slots per schedule, which
	// this keeps entirely off the heap. Because links aliases this storage,
	// an initialized SlotState must not be copied.
	linksBuf [4]slotLink
}

// Init (re-)binds s to engine e as an empty slot; when e is the dense
// *Channel the matrix fast path is selected. The zero SlotState is ready
// for Init, so callers that build many slots (greedy schedulers construct
// one per schedule slot) can hold them in slabs without a heap allocation
// per slot.
func (s *SlotState) Init(e Engine) {
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
	if c, ok := e.(*Channel); ok {
		s.rx = c.rx
	}
	s.n = e.NumNodes()
	s.beta = e.Beta()
	s.noise = e.NoiseMW()
	s.marked = -1
}

// InitDataOnly is Init with the ACK sub-slot inequality disabled.
func (s *SlotState) InitDataOnly(e Engine) {
	s.Init(e)
	s.ignoreAck = true
}

// Len returns the number of links currently in the slot.
func (s *SlotState) Len() int { return len(s.links) }

// AppendLinks appends the links currently in the slot, in admission order,
// to dst and returns the extended slice.
func (s *SlotState) AppendLinks(dst []Link) []Link {
	for i := range s.links {
		dst = append(dst, s.links[i].Link)
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
	if rx := s.rx; rx != nil {
		n := s.n
		// The new link's own inequalities (and primary conflicts), first: on
		// the dominant path — a greedy scheduler probing successive full slots
		// — this rejects after 2 loads per admitted link.
		dataInterf, ackInterf := 0.0, 0.0
		for i := range s.links {
			m := &s.links[i]
			if c.From == m.From || c.From == m.To || c.To == m.From || c.To == m.To {
				return false
			}
			dataInterf += rx[m.From*n+c.To]
			ackInterf += rx[m.To*n+c.From]
		}
		if c.DataMW < beta*(noise+dataInterf) {
			return false
		}
		if !s.ignoreAck && c.AckMW < beta*(noise+ackInterf) {
			return false
		}
		// Existing links under the extra interference from c.
		for i := range s.links {
			m := &s.links[i]
			if m.DataMW < beta*(noise+m.dataSum+rx[c.From*n+m.To]) {
				return false
			}
			if !s.ignoreAck && m.AckMW < beta*(noise+m.ackSum+rx[c.To*n+m.From]) {
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
		if c.From == m.From || c.From == m.To || c.To == m.From || c.To == m.To {
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
		if m.DataMW < beta*(noise+m.dataSum+eng.InterfMW(c.From, m.To)) {
			return false
		}
		if !s.ignoreAck && m.AckMW < beta*(noise+m.ackSum+eng.InterfMW(c.To, m.From)) {
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
		src := s.links[i].From
		if ack {
			src = s.links[i].To
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
// conflict or fail their handshake (Outcomes reports which), and greedy
// callers are expected to gate on CanAdd themselves.
func (s *SlotState) Add(c Candidate) {
	if m := slotMetrics.Load(); m != nil {
		m.adds.Inc()
	}
	dataInterf, ackInterf := 0.0, 0.0
	if rx := s.rx; rx != nil {
		n := s.n
		for i := range s.links {
			m := &s.links[i]
			m.dataSum += rx[c.From*n+m.To]
			m.ackSum += rx[c.To*n+m.From]
			dataInterf += rx[m.From*n+c.To]
			ackInterf += rx[m.To*n+c.From]
		}
	} else {
		eng := s.eng
		for i := range s.links {
			m := &s.links[i]
			m.dataSum += eng.InterfMW(c.From, m.To)
			m.ackSum += eng.InterfMW(c.To, m.From)
			dataInterf += eng.InterfMW(m.From, c.To)
			ackInterf += eng.InterfMW(m.To, c.From)
		}
	}
	s.links = append(s.links, slotLink{Candidate: c, dataSum: dataInterf, ackSum: ackInterf})
	if s.busy != nil {
		s.busy[c.From]++
		s.busy[c.To]++
	}
}

// Mark snapshots the current slot so a later Rollback can undo any Adds
// performed after it — the protocols' tentative handshake pattern: mark,
// admit the step's active links, evaluate Outcomes, and roll back if the
// slot vetoes. Restoration is exact (the records are copied, not
// re-derived). Only one mark is outstanding at a time; a new Mark replaces
// the previous one, and Reset invalidates it.
func (s *SlotState) Mark() {
	s.marked = len(s.links)
	s.saved = append(s.saved[:0], s.links...)
}

// Rollback restores the slot to the state captured by the last Mark. It
// panics if no valid mark is outstanding.
func (s *SlotState) Rollback() {
	if s.marked < 0 || s.marked > len(s.links) {
		panic("phys: SlotState.Rollback without a valid Mark")
	}
	if m := slotMetrics.Load(); m != nil {
		m.rollbacks.Inc()
	}
	if s.busy != nil {
		for _, l := range s.links[s.marked:] {
			s.busy[l.From]--
			s.busy[l.To]--
		}
	}
	s.links = append(s.links[:0], s.saved...)
}

// Reset empties the slot for reuse and invalidates any outstanding Mark.
func (s *SlotState) Reset() {
	if s.busy != nil {
		for _, l := range s.links {
			s.busy[l.From]--
			s.busy[l.To]--
		}
	}
	s.links = s.links[:0]
	s.marked = -1
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
func (s *SlotState) Outcomes() []bool {
	k := len(s.links)
	if cap(s.out) < k {
		s.out = make([]bool, k)
		s.dataOK = make([]bool, k)
	}
	out := s.out[:k]
	dataOK := s.dataOK[:k]
	s.failed = s.failed[:0]
	beta, noise := s.beta, s.noise
	if s.busy == nil {
		s.busy = make([]int32, s.n)
		for _, l := range s.links {
			s.busy[l.From]++
			s.busy[l.To]++
		}
	}

	// Data sub-slot. A primary-conflicted link never completes its
	// handshake (but its sender still radiates, which the running sums
	// already account for).
	for i := range s.links {
		l := &s.links[i]
		dataOK[i] = s.busy[l.From] <= 1 && s.busy[l.To] <= 1 && l.DataMW >= beta*(noise+l.dataSum)
		if !dataOK[i] {
			s.failed = append(s.failed, i)
		}
	}

	// ACK sub-slot: links whose data was not decoded stay silent, so their
	// contribution is deducted from the running all-receivers sums.
	rx, n, eng := s.rx, s.n, s.eng
	for i := range s.links {
		l := &s.links[i]
		if !dataOK[i] {
			out[i] = false
			continue
		}
		ackInterf := l.ackSum
		for _, j := range s.failed {
			if rx != nil {
				ackInterf -= rx[s.links[j].To*n+l.From]
			} else {
				ackInterf -= eng.InterfMW(s.links[j].To, l.From)
			}
		}
		out[i] = l.AckMW >= beta*(noise+ackInterf)
	}
	return out
}
