package phys

// Engine is the interference-model abstraction the feasibility machinery
// (SlotState and the greedy scheduler family) runs against. Three
// implementations exist: the dense *Channel, whose n*n gain matrix answers
// every query exactly, the spatial grid-bucket index
// (internal/phys/spatial), which may over-estimate interference gains
// beyond its cutoff radius, and the index's run memo.
//
// The model of Section II takes every received power as the sender's fixed
// TX power times a pair gain, and path loss and a static shadowing draw are
// both symmetric in the pair. So an engine answers powers and gains, and a
// reader computes P_v(u) as float64(TxPowerMW(u)*Gain(u, v)). Both gains
// must be the same bits in either order: two gains per admitted link then
// give all four terms a link and a slot member exchange.
//
// The split between Gain and InterfGain is the contract that makes the
// spatial engine safe. Gain must be exact: times the sender's power it is
// the signal on the favorable (left) side of every SINR inequality, so an
// error there could admit an infeasible link. InterfGain appears only inside
// interference sums (the unfavorable right side) and may return any value
// >= Gain; over-estimating it only makes the engine reject more, never
// admit more, so every schedule a conservative engine admits is feasible
// under the exact model.
//
// Engines follow the Channel concurrency contract: safe for any number of
// concurrent readers, with mutations (topology dynamics) requiring exclusive
// access.
type Engine interface {
	// NumNodes returns the number of nodes the engine models.
	NumNodes() int
	// NoiseMW returns the background noise power in milliwatts.
	NoiseMW() float64
	// Beta returns the linear SINR threshold.
	Beta() float64
	// TxPowerMW returns node u's transmit power in milliwatts.
	TxPowerMW(u int) float64
	// Gain returns the exact linear gain between u and v, the same in both
	// directions (0 for u == v).
	Gain(u, v int) float64
	// InterfGain returns an upper bound on Gain(u, v), the same in both
	// directions: the gain a sender's power takes into an interference
	// sum. Exact engines return Gain(u, v) itself.
	InterfGain(u, v int) float64
}

// TxPowerMW returns node u's transmit power. Part of the Engine interface.
func (c *Channel) TxPowerMW(u int) float64 { return c.txPowerMW[u] }

// InterfGain returns Gain(u, v): the dense channel is exact. Part of the
// Engine interface.
func (c *Channel) InterfGain(u, v int) float64 { return c.Gain(u, v) }
