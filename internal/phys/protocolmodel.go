package phys

// ProtocolModel is the protocol interference model the paper contrasts with
// the physical model (Section I): a transmission u -> v succeeds iff no
// other node within the interference range of v (or of u, for the ACK) is
// simultaneously active. It is the abstraction CSMA/CA-style MACs enforce,
// and it is strictly more conservative than SINR feasibility at matched
// parameters — quantifying the capacity the physical model recovers is the
// point of the comparison experiment.
type ProtocolModel struct {
	ch *Channel
	// interfMW is the received-power level above which a concurrent
	// transmitter is considered "within interference range".
	interfMW float64
}

// NewProtocolModel builds a protocol model on top of a channel. A node x
// interferes with a receiver r when P_r(x) >= interfThresholdMW. Choosing
// the carrier-sense threshold reproduces an 802.11-like exclusion region.
func NewProtocolModel(ch *Channel, interfThresholdMW float64) *ProtocolModel {
	return &ProtocolModel{ch: ch, interfMW: interfThresholdMW}
}

// Interferes reports whether node x is inside the exclusion region of node r.
func (p *ProtocolModel) Interferes(x, r int) bool {
	return p.ch.RxPowerMW(x, r) >= p.interfMW
}

// FeasibleSet reports whether the links can be scheduled concurrently under
// the protocol model: pairwise endpoint-disjoint, every link must be up
// (SNR >= beta in isolation), and for every pair of links, neither link's
// sender or receiver may fall in the exclusion region of the other link's
// receiver or sender (data and ACK directions respectively).
func (p *ProtocolModel) FeasibleSet(links []Link) bool {
	for i, l := range links {
		if !p.ch.LinkUp(l.From, l.To) || !p.ch.LinkUp(l.To, l.From) {
			return false
		}
		for _, m := range links[i+1:] {
			if l.SharesEndpoint(m) {
				return false
			}
			// Data sub-slot: foreign senders must be outside both
			// receivers' exclusion regions.
			if p.Interferes(m.From, l.To) || p.Interferes(l.From, m.To) {
				return false
			}
			// ACK sub-slot: foreign ACK senders (the receivers) must be
			// outside both data senders' exclusion regions.
			if p.Interferes(m.To, l.From) || p.Interferes(l.To, m.From) {
				return false
			}
		}
	}
	return true
}
