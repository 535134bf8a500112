package scream

// The flow-level dynamic traffic API: a mesh's schedulers run over simulated
// time under continuous packet arrivals — per-link FIFO queues, gateway
// forwarding along the routing forest, epoch-based re-scheduling against
// backlog snapshots, and goodput/delay/backlog metrics. Runs are described by
// a ScenarioSpec and executed by Run/RunWith (scenario.go). See internal/flow
// and the "Dynamic traffic" section of DESIGN.md.

import (
	"fmt"

	"scream/internal/flow"
	"scream/internal/rng"
	"scream/internal/traffic"
)

// Flow-related aliases re-exported from internal packages.
type (
	// Arrival is a per-node packet arrival process (CBR, Poisson, bursty
	// on/off); see NewCBR, NewPoisson, NewBursty.
	Arrival = traffic.Arrival
	// FlowResult is the outcome of a dynamic traffic run: goodput, delay
	// percentiles, backlog and control-overhead accounting.
	FlowResult = flow.Result
	// EpochUpdate is the per-epoch progress snapshot handed to
	// RunOptions.OnEpoch — the streaming hook of interactive callers (the
	// screamd daemon's epoch stream is exactly these, serialized).
	EpochUpdate = flow.EpochUpdate
)

// NewCBR returns a constant-rate arrival process (packets per second).
func NewCBR(rate float64) (Arrival, error) { return traffic.NewCBR(rate) }

// NewPoisson returns a Poisson arrival process (mean packets per second).
func NewPoisson(rate float64) (Arrival, error) { return traffic.NewPoisson(rate) }

// NewBursty returns a two-state on/off arrival process: Poisson at peakRate
// during exponential ON periods (mean meanOn), silent during OFF periods
// (mean meanOff).
func NewBursty(peakRate float64, meanOn, meanOff SimTime) (Arrival, error) {
	return traffic.NewBursty(peakRate, meanOn, meanOff)
}

// HotspotRates draws Zipf-skewed per-node rate multipliers normalized to
// mean 1 — combine with NewPoisson to concentrate a mesh's offered load on a
// few hotspot routers.
func HotspotRates(n int, s, v float64, max uint64, seed int64) ([]float64, error) {
	return traffic.HotspotRates(n, s, v, max, rng.New(seed))
}

// FlowFrameTime returns the mesh's capacity reference: the duration of one
// greedy frame delivering one end-to-end packet per non-gateway node. A
// per-node arrival rate of x/FlowFrameTime offers x times the static
// schedule's sustainable load (the x axis of FigFlowLoad, and the unit of
// TrafficSpec.Load).
func (m *Mesh) FlowFrameTime(tm Timing) (SimTime, error) {
	if tm == (Timing{}) {
		tm = DefaultTiming()
	}
	frame, err := flow.FrameTime(m.Network.Channel, m.Forest, m.Links, tm)
	if err != nil {
		return 0, fmt.Errorf("scream: %w", err)
	}
	return frame, nil
}
