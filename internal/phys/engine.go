package phys

// Engine is the interference-model abstraction the feasibility machinery
// (SlotState and the greedy scheduler family) runs against. Two
// implementations exist: the dense *Channel, whose cached n*n RX-power
// matrix answers every query exactly, and the spatial grid-bucket index
// (internal/phys/spatial), which answers signal queries exactly but may
// over-estimate interference beyond its cutoff radius.
//
// The split between SignalMW and InterfMW is the contract that makes the
// spatial engine safe: SignalMW(u, v) must return the exact received power
// P_v(u) — it appears on the favorable (left) side of every SINR inequality,
// so an error there could admit an infeasible link. InterfMW(u, v) appears
// only inside interference sums (the unfavorable right side) and may return
// any value >= the exact received power; over-estimating it only makes the
// engine reject more, never admit more, so every schedule a conservative
// engine admits is feasible under the exact model.
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
	// Gain returns the linear gain from node u to node v (0 for u == v).
	Gain(u, v int) float64
	// SignalMW returns the exact received power P_v(u) in milliwatts.
	SignalMW(u, v int) float64
	// InterfMW returns an upper bound on the power node u contributes to
	// the interference sum at node v; exact engines return P_v(u) itself.
	InterfMW(u, v int) float64
}

// SignalMW returns the exact received power P_v(u). Part of the Engine
// interface; for the dense channel it is RxPowerMW.
func (c *Channel) SignalMW(u, v int) float64 { return c.RxPowerMW(u, v) }

// InterfMW returns node u's interference contribution at node v. The dense
// channel is exact, so this too is RxPowerMW.
func (c *Channel) InterfMW(u, v int) float64 { return c.RxPowerMW(u, v) }
