package phys

import "fmt"

// Link is a directed data transmission: From sends a data packet to To in the
// data sub-slot, and To returns a link-layer ACK to From in the ACK sub-slot
// (the slot-splitting variant of the interference model, Section II).
type Link struct {
	From, To int
}

// String implements fmt.Stringer.
func (l Link) String() string { return fmt.Sprintf("%d->%d", l.From, l.To) }

// SharesEndpoint reports whether two links have a node in common. Links that
// share an endpoint can never be scheduled in the same slot: radios are
// half-duplex and single-channel, so a node cannot take part in two
// simultaneous transmissions (primary conflict).
func (l Link) SharesEndpoint(m Link) bool {
	return l.From == m.From || l.From == m.To || l.To == m.From || l.To == m.To
}

// FeasibleSet reports whether the set of links can all be scheduled in the
// same slot and correctly received, per the paper's model: for every link
// (u,v),
//
//	P_v(u) / (N + sum_{x in V'} P_v(x))  >= beta   (data sub-slot), and
//	P_u(v) / (N + sum_{y in V''} P_u(y)) >= beta   (ACK sub-slot),
//
// where V' is the set of all other data senders and V” the set of all other
// ACK senders (the receivers of the other links). Primary conflicts (shared
// endpoints, including duplicate links) also make a set infeasible.
func (c *Channel) FeasibleSet(links []Link) bool {
	for i, l := range links {
		for _, m := range links[i+1:] {
			if l.SharesEndpoint(m) {
				return false
			}
		}
	}
	for i, l := range links {
		dataInterf, ackInterf := 0.0, 0.0
		for j, m := range links {
			if i == j {
				continue
			}
			dataInterf += c.RxPowerMW(m.From, l.To)
			ackInterf += c.RxPowerMW(m.To, l.From)
		}
		if c.RxPowerMW(l.From, l.To) < c.beta*(c.noiseMW+dataInterf) {
			return false
		}
		if c.RxPowerMW(l.To, l.From) < c.beta*(c.noiseMW+ackInterf) {
			return false
		}
	}
	return true
}

// HandshakeOutcome simulates what actually happens when all the given links
// attempt their two-way handshake concurrently in one slot (the DoHandShake
// step of the protocols): first every sender transmits its data packet; a
// receiver decodes iff its data SINR clears beta. Then exactly the receivers
// that decoded send ACKs; a handshake succeeds iff the data was decoded and
// the ACK SINR at the sender clears beta given the other concurrent ACKs.
//
// Links with primary conflicts always fail (both of the conflicting
// handshakes are destroyed). The returned slice is indexed like links, true
// meaning the two-way handshake succeeded.
func (c *Channel) HandshakeOutcome(links []Link) []bool {
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
	// Data sub-slot: every From transmits regardless of conflicts (a
	// conflicted node still radiates energy, it just cannot complete its
	// own handshake).
	dataOK := make([]bool, n)
	for i, l := range links {
		if conflicted[i] {
			continue
		}
		interf := 0.0
		for j, m := range links {
			if i == j {
				continue
			}
			interf += c.RxPowerMW(m.From, l.To)
		}
		dataOK[i] = c.RxPowerMW(l.From, l.To) >= c.beta*(c.noiseMW+interf)
	}
	// ACK sub-slot: only receivers that decoded the data transmit ACKs.
	for i, l := range links {
		if !dataOK[i] {
			continue
		}
		interf := 0.0
		for j, m := range links {
			if i == j || !dataOK[j] {
				continue
			}
			interf += c.RxPowerMW(m.To, l.From)
		}
		ok[i] = c.RxPowerMW(l.To, l.From) >= c.beta*(c.noiseMW+interf)
	}
	return ok
}

// The incremental counterpart of FeasibleSet and HandshakeOutcome — O(k)
// admission checks and handshake evaluation over running interference sums —
// lives in SlotState (slotstate.go). FeasibleSet and HandshakeOutcome above
// are kept as the naive reference implementations its property tests and
// Schedule.Verify compare against.
