package exp

// The topology-dynamics figure: delivered goodput vs node failure rate for
// the distributed protocols and the baselines, measured by the flow-level
// simulator with the dynam churn driver underneath. This is the scenario
// axis the related work judges physical-model schedulers by (Vieira et al.,
// Halldórsson & Mitra): how does the schedule hold up when the topology it
// was planned for stops existing? The adaptive schedulers (Centralized
// greedy, FDD, PDD) re-plan at epoch boundaries on the incrementally
// repaired forest; the static TDMA frame keeps serving its original links
// and pays for it with stranded subtrees.

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/dynam"
	"scream/internal/flow"
	"scream/internal/stats"
)

// churnLoad is the offered load of the churn figure in units of static
// greedy capacity: high enough that lost capacity shows, low enough that
// the adaptive schedulers have rerouting headroom.
const churnLoad = 0.7

// churnDowntimeFrac is the mean node downtime as a fraction of the horizon:
// long enough that an outage spans many epochs, short enough that the
// steady state is churn, not monotone decay.
const churnDowntimeFrac = 0.15

// ChurnRates returns the x axis of FigChurn: expected failures per node
// over the whole run.
func ChurnRates(quick bool) []float64 {
	if quick {
		return []float64{0, 1, 4}
	}
	return []float64{0, 0.5, 1, 2, 4}
}

// churnCurveNames are FigChurn's series, aligned with flowCurves.
func churnCurveNames() []string {
	return []string{"Centralized", "FDD", "PDD p=0.8", "TDMA (static)"}
}

// RunChurnCell runs one (failure-rate, seed) cell: every curve gets a fresh
// copy of the same scenario and the same churn timeline (the world seed
// derives from the cell seed only); arrival streams are seeded per curve,
// FigFlowLoad's convention, so cross-curve deltas average out over seeds
// rather than being arrival-paired. failures is the expected number of
// failures per node over the run; the returned values are delivered goodput
// in packets per second.
func RunChurnCell(failures float64, seed int64, quick bool) ([]float64, error) {
	horizonFrames := 1200
	if quick {
		horizonFrames = 300
	}
	vals := make([]float64, len(flowCurves))
	for ci, name := range flowCurves {
		// Every curve rebuilds the scenario from the cell seed: the dynamics
		// world mutates the network in place, so curves must not share one.
		s, err := GridScenario(flowDensity, 5300+seed)
		if err != nil {
			return nil, err
		}
		tm := core.DefaultTiming()
		frame, err := flow.FrameTime(s.Net.Channel, s.Forest, s.Links, tm)
		if err != nil {
			return nil, err
		}
		horizon := des.Time(horizonFrames) * frame
		world, err := dynam.NewWorld(s.Net, s.Forest, dynam.Config{
			FailRate:     failures / horizon.Seconds(),
			MeanDowntime: des.Time(float64(horizon) * churnDowntimeFrac),
			Horizon:      horizon,
			Seed:         seed, // same timeline for every curve
		})
		if err != nil {
			return nil, err
		}
		rate := churnLoad / frame.Seconds()
		run := flowRun{
			s: s, tm: tm, horizon: horizon, seed: seed,
			channels: 1, radios: 1, framesPerEpoch: flowFramesPerEpoch,
			rate: func(int) float64 { return rate }, world: world,
		}
		if vals[ci], err = run.goodput(name, int64(ci)); err != nil {
			return nil, fmt.Errorf("churn cell failures=%g seed=%d curve=%s: %w", failures, seed, name, err)
		}
	}
	return vals, nil
}

// FigChurn sweeps the per-node failure rate and plots the goodput each
// scheduler sustains under churn. At rate 0 it reproduces the flow figure's
// ordering (spatial reuse separates Centralized from TDMA, control overhead
// separates the distributed protocols from Centralized); as the rate rises,
// the adaptive schedulers degrade gracefully — they lose the dead sources'
// offered load and pay repair floods — while the static TDMA frame also
// strands every subtree behind a dead relay until it recovers.
func FigChurn(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure(
		"Churn: Delivered Goodput vs Node Failure Rate (topology dynamics)",
		"expected failures per node per run", "delivered goodput (pkt/s)")
	xs := ChurnRates(opts.Quick)
	names := churnCurveNames()
	err := runGrid(fig, xs, names, opts, func(xi, si int) ([]float64, error) {
		return RunChurnCell(xs[xi], int64(si), opts.Quick)
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
