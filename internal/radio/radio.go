// Package radio is the packet-level wireless backend that replaces the
// paper's GTNetS simulation: transmissions are timed intervals on a
// discrete-event clock, every node's local clock is skewed within a bound,
// carrier sensing is aggregate-energy detection over the listener's slot
// window, and packet reception requires the worst-case SINR over the packet
// airtime to clear beta. It implements core.Backend, so the PDD/FDD
// protocols run unchanged on top of it.
package radio

import (
	"fmt"
	"math/rand"
	"sort"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/phys"
)

// Backend is a packet-level implementation of core.Backend.
type Backend struct {
	ch      *phys.Channel
	csMW    float64
	k       int
	timing  core.Timing
	offsets []des.Time // per-node clock offset, |offset| <= offset bound
	eng     *des.Engine
}

var _ core.Backend = (*Backend)(nil)

// New builds a packet-level backend. offsetBound is the *actual* clock skew
// of the nodes (offsets are drawn uniformly from [-offsetBound, +offsetBound]
// using rng); timing.SkewBound is what the protocol *believes* and provisions
// guard time for. Setting offsetBound > timing.SkewBound under-provisions the
// guard and lets tests observe the resulting protocol failures.
func New(ch *phys.Channel, csThresholdMW float64, k int, timing core.Timing, offsetBound des.Time, rng *rand.Rand) (*Backend, error) {
	if k <= 0 {
		return nil, fmt.Errorf("radio: k must be positive, got %d", k)
	}
	if csThresholdMW <= 0 {
		return nil, fmt.Errorf("radio: carrier-sense threshold must be positive")
	}
	n := ch.NumNodes()
	offsets := make([]des.Time, n)
	if offsetBound > 0 {
		if rng == nil {
			return nil, fmt.Errorf("radio: non-zero offset bound requires an rng")
		}
		for i := range offsets {
			offsets[i] = des.Time(rng.Int63n(int64(2*offsetBound+1))) - offsetBound
		}
	}
	return &Backend{
		ch:      ch,
		csMW:    csThresholdMW,
		k:       k,
		timing:  timing,
		offsets: offsets,
		eng:     des.New(),
	}, nil
}

// NumNodes implements core.Backend.
func (b *Backend) NumNodes() int { return b.ch.NumNodes() }

// Elapsed implements core.Backend.
func (b *Backend) Elapsed() des.Time { return b.eng.Now() }

// span is a transmission interval with the power it lands at one receiver.
type span struct {
	start, end des.Time
	power      float64
}

// maxAggregate returns the maximum total power of the spans over the probe
// window [a, b), treating spans as half-open intervals.
func maxAggregate(spans []span, a, b des.Time) float64 {
	type evt struct {
		t  des.Time
		dp float64
	}
	var events []evt
	for _, s := range spans {
		lo, hi := s.start, s.end
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi <= lo {
			continue
		}
		events = append(events, evt{lo, s.power}, evt{hi, -s.power})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].dp < events[j].dp // process departures first (half-open)
	})
	sum, max := 0.0, 0.0
	for _, e := range events {
		sum += e.dp
		if sum > max {
			max = sum
		}
	}
	return max
}

// Scream implements core.Backend: K slots of scream-and-relay with real
// energy detection over each listener's skewed window.
func (b *Backend) Scream(vars []bool) []bool {
	return core.RunScreamSlots(b.k, vars, b.screamSlot)
}

func (b *Backend) screamSlot(screamers []bool) []bool {
	t0 := b.eng.Now()
	slotDur := b.timing.ScreamSlot()
	payload := b.timing.TxTime(b.timing.SMBytes)
	delay := b.timing.TxDelay()

	n := b.NumNodes()
	det := make([]bool, n)
	var txs []int
	for u := 0; u < n; u++ {
		if screamers[u] {
			txs = append(txs, u)
		}
	}
	for v := 0; v < n; v++ {
		if screamers[v] {
			continue // transmitters do not listen in this slot
		}
		spans := make([]span, 0, len(txs))
		for _, u := range txs {
			start := t0 + b.offsets[u] + delay
			spans = append(spans, span{start: start, end: start + payload, power: b.ch.RxPowerMW(u, v)})
		}
		winStart := t0 + b.offsets[v]
		det[v] = maxAggregate(spans, winStart, winStart+slotDur) >= b.csMW
	}
	b.eng.RunUntil(t0 + slotDur)
	return det
}

// HandshakeSlot implements core.Backend: a data sub-slot followed by an ACK
// sub-slot, both with skewed per-node windows and worst-case SINR decoding.
func (b *Backend) HandshakeSlot(links []phys.Link) []bool {
	t0 := b.eng.Now()
	n := len(links)
	ok := make([]bool, n)

	conflicted := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if links[i].SharesEndpoint(links[j]) {
				conflicted[i] = true
				conflicted[j] = true
			}
		}
	}

	// Data sub-slot: every sender transmits (a conflicted sender still
	// radiates energy; it just cannot complete its own handshake).
	all := func(int) bool { return true }
	dataOK := b.decodeSubSlot(t0, links, b.timing.DataBytes, b.timing.DataSubSlot(), func(i int) (tx, rx int) {
		return links[i].From, links[i].To
	}, all, func(i int) bool { return !conflicted[i] })

	// ACK sub-slot: only receivers that decoded the data reply.
	ackStart := t0 + b.timing.DataSubSlot()
	acks := func(i int) bool { return dataOK[i] }
	ackOK := b.decodeSubSlot(ackStart, links, b.timing.AckBytes, b.timing.AckSubSlot(), func(i int) (tx, rx int) {
		return links[i].To, links[i].From
	}, acks, acks)

	for i := range links {
		ok[i] = dataOK[i] && ackOK[i]
	}
	b.eng.RunUntil(t0 + b.timing.HandshakeSlot())
	return ok
}

// decodeSubSlot runs one sub-slot in which, for each link i with
// transmits(i), endpoint tx(i) transmits `bytes` to rx(i), all concurrently.
// Links with decodes(i) attempt reception: a packet decodes iff it lies
// fully inside its receiver's window and its worst-case SINR over the packet
// airtime clears beta.
func (b *Backend) decodeSubSlot(t0 des.Time, links []phys.Link, bytes int, slotDur des.Time, dir func(i int) (tx, rx int), transmits, decodes func(i int) bool) []bool {
	payload := b.timing.TxTime(bytes)
	delay := b.timing.TxDelay()
	n := len(links)
	okOut := make([]bool, n)

	type tx struct {
		node       int
		start, end des.Time
	}
	var txs []tx
	for i := range links {
		if !transmits(i) {
			continue
		}
		u, _ := dir(i)
		start := t0 + b.offsets[u] + delay
		txs = append(txs, tx{node: u, start: start, end: start + payload})
	}
	for i := range links {
		if !transmits(i) || !decodes(i) {
			continue
		}
		u, v := dir(i)
		start := t0 + b.offsets[u] + delay
		end := start + payload
		winStart := t0 + b.offsets[v]
		winEnd := winStart + slotDur
		if start < winStart || end > winEnd {
			continue // packet not contained in the receiver's window
		}
		// Worst-case interference over the packet airtime.
		var spans []span
		for _, x := range txs {
			if x.node == u {
				continue
			}
			spans = append(spans, span{start: x.start, end: x.end, power: b.ch.RxPowerMW(x.node, v)})
		}
		interf := maxAggregate(spans, start, end)
		okOut[i] = b.ch.RxPowerMW(u, v) >= b.ch.Beta()*(b.ch.NoiseMW()+interf)
	}
	return okOut
}
