package exp

// The dynamic-traffic figure: offered load vs delivered goodput for the
// distributed protocols and the centralized baselines, measured by the
// flow-level simulator (internal/flow) instead of by one-shot schedule
// length. This is the evaluation style of the related work (Vieira et al.,
// Zhou et al.): sustain continuous arrivals and observe what the scheduler
// actually delivers.

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/dynam"
	"scream/internal/flow"
	"scream/internal/stats"
	"scream/internal/traffic"
)

// flowDensity is the deployment density of the flow figure: the paper's
// sparsest planned scenario, where the physical model admits real spatial
// reuse — the regime in which scheduler quality shows up as goodput.
const flowDensity = 1000

// flowFramesPerEpoch is the schedule-reuse amortization of the flow figure:
// each epoch replays its schedule this many frames before the next control
// phase. An FDD re-schedule costs ~150 data frames of simulated time on this
// scenario, so the value sets how much of that cost the epoch absorbs.
const flowFramesPerEpoch = 64

// flowMaxService is the per-link service quota per control epoch: it bounds
// epoch length under overload so re-scheduling stays responsive.
const flowMaxService = 8

// FlowLoads returns the offered-load sweep (fraction of the greedy
// schedule's capacity) of FigFlowLoad.
func FlowLoads(quick bool) []float64 {
	if quick {
		return []float64{0.5, 1.0, 1.5}
	}
	return []float64{0.3, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5}
}

// flowCurves are the registry schedulers behind the four curves of
// FigFlowLoad, FigChurn and FigChannels: the centralized greedy upper bound,
// the two distributed protocols at their real control cost, and the TDMA
// floor.
var flowCurves = [...]string{"greedy", "fdd", "pdd", "tdma"}

// flowCurveNames are FigFlowLoad's series, aligned with flowCurves.
func flowCurveNames() []string {
	return []string{"Centralized", "FDD", "PDD p=0.8", "TDMA"}
}

// flowRun is one cell of a flow figure: what all of its curves share.
type flowRun struct {
	s       *Scenario
	tm      core.Timing
	horizon des.Time
	// seed is the cell seed: FDD runs on it, PDD on seed+1 at p = 0.8, and
	// every curve's arrivals on a stream derived from it.
	seed int64
	// channels and radios shape the multi-channel schedulers (0 or 1 =
	// single-channel).
	channels, radios int
	framesPerEpoch   int
	// rate is node u's Poisson arrival rate in packets per second.
	rate  func(u int) float64
	world *dynam.World // nil for a static topology
}

// goodput runs one curve: the flow registry's scheduler name over the cell's
// scenario, under Poisson arrivals at every non-gateway node drawn from
// stream stream of the cell seed. It returns the delivered goodput in
// packets per second.
func (r flowRun) goodput(name string, stream int64) (float64, error) {
	def, err := flow.SchedulerDefByName(name)
	if err != nil {
		return 0, err
	}
	s := r.s
	env := flow.SchedulerEnv{
		Channel: s.Net.Channel, Sens: s.Net.Sens, Links: s.Links, Timing: r.tm,
		Channels: r.channels, Radios: r.radios,
	}
	switch name {
	case "fdd":
		env.Seed = r.seed
	case "pdd":
		env.P, env.Seed = 0.8, r.seed+1
	}
	sc, err := def.New(env)
	if err != nil {
		return 0, err
	}
	arrivals := make([]traffic.Arrival, s.Net.NumNodes())
	for u := range arrivals {
		if s.Forest.IsGateway(u) {
			continue
		}
		p, err := traffic.NewPoisson(r.rate(u))
		if err != nil {
			return 0, err
		}
		arrivals[u] = p
	}
	cfg := flow.Config{
		Forest:         s.Forest,
		Links:          s.Links,
		Scheduler:      sc,
		Timing:         r.tm,
		Arrivals:       arrivals,
		Horizon:        r.horizon,
		Seed:           flow.DeriveSeed(r.seed, stream),
		MaxService:     flowMaxService,
		FramesPerEpoch: r.framesPerEpoch,
		Dynamics:       r.world,
	}
	if r.world != nil {
		cfg.RepairCost = r.tm.RepairCost(s.Net.InterferenceDiameter())
	}
	res, err := flow.Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.GoodputPps, nil
}

// RunFlowCell runs one (load, seed) cell of the flow figure for every curve
// and returns delivered goodput in packets per second per curve.
func RunFlowCell(load float64, seed int64, quick bool) ([]float64, error) {
	s, err := GridScenario(flowDensity, 4200+seed)
	if err != nil {
		return nil, err
	}
	tm := core.DefaultTiming()
	frame, err := flow.FrameTime(s.Net.Channel, s.Forest, s.Links, tm)
	if err != nil {
		return nil, err
	}
	rate := load / frame.Seconds()
	horizonFrames := 1600
	if quick {
		horizonFrames = 400
	}
	run := flowRun{
		s: s, tm: tm, horizon: des.Time(horizonFrames) * frame, seed: seed,
		channels: 1, radios: 1, framesPerEpoch: flowFramesPerEpoch,
		rate: func(int) float64 { return rate },
	}
	vals := make([]float64, len(flowCurves))
	for ci, name := range flowCurves {
		if vals[ci], err = run.goodput(name, int64(ci)); err != nil {
			return nil, fmt.Errorf("flow cell load=%g seed=%d curve=%s: %w", load, seed, name, err)
		}
	}
	return vals, nil
}

// FigFlowLoad sweeps offered load (as a fraction of the greedy schedule's
// static capacity) and plots the goodput each scheduler actually delivers
// when run dynamically: epoch-based re-scheduling against backlog snapshots,
// real control cost for the distributed protocols, zero (genie) control cost
// for Centralized and TDMA. Below saturation every curve tracks the offered
// line; beyond it each plateaus at its own effective capacity — spatial
// reuse separates Centralized from TDMA, and control overhead separates the
// distributed protocols from Centralized.
func FigFlowLoad(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure(
		"FlowLoad: Delivered Goodput vs Offered Load (dynamic traffic)",
		"offered load (x static capacity)", "delivered goodput (pkt/s)")
	xs := FlowLoads(opts.Quick)
	names := flowCurveNames()
	err := runGrid(fig, xs, names, opts, func(xi, si int) ([]float64, error) {
		return RunFlowCell(xs[xi], int64(si), opts.Quick)
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
