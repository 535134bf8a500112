package exp

// The scheduler-family figure: offered load × topology sweep showing which
// scheduler wins where. Every curve is one (scheduler, topology) pair run
// through the flow-level simulator under Zipf-skewed hotspot arrivals — the
// backlog regime that separates queue-aware ordering from a static order.
// All four schedulers pay zero (genie) control cost, so the figure isolates
// scheduling quality: Greedy is the static head-ID order of the paper,
// MaxWeight re-ranks by backlog×rate each epoch (arXiv:1106.1590), FanZhang
// is the length-class approximation scheduler (arXiv:0910.5215), and TDMA is
// the no-reuse floor. The exact optimality gap of the same family on small
// instances is pinned by the gap harness in internal/sched's tests.

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/flow"
	"scream/internal/rng"
	"scream/internal/stats"
	"scream/internal/traffic"
)

// schedZipfS and schedZipfMax shape the hotspot skew of the figure's
// arrivals (traffic.HotspotRates): s=1.5 over multipliers up to 32 puts most
// of the offered load on a handful of routers.
const (
	schedZipfS   = 1.5
	schedZipfMax = 32
)

// schedFramesPerEpoch is the schedule-reuse amortization of the sched
// figure: short enough that the backlog snapshot the queue-aware scheduler
// ranks by is fresh (the quantity under study), long enough that the run is
// data-bound.
const schedFramesPerEpoch = 16

// SchedLoads returns the offered-load sweep (fraction of the static greedy
// capacity) of FigSched.
func SchedLoads(quick bool) []float64 {
	if quick {
		return []float64{0.7, 1.5}
	}
	return []float64{0.5, 0.8, 1.1, 1.5, 2.0}
}

// schedTopos are the figure's topology axis: the planned grid and the
// unplanned uniform deployment of the paper's evaluation.
func schedTopos() []string { return []string{"grid", "uniform"} }

// schedFamily enumerates the figure's scheduler axis from the flow-scheduler
// registry: every zero-control-cost (non-distributed) member, in registry
// order — greedy, maxweight, fanzhang, tdma. A scheduler added to the
// registry automatically grows the figure a curve.
func schedFamily() []flow.SchedulerDef {
	var fam []flow.SchedulerDef
	for _, d := range flow.SchedulerDefs() {
		if !d.Distributed {
			fam = append(fam, d)
		}
	}
	return fam
}

// schedCurveNames are FigSched's series: scheduler × topology.
func schedCurveNames() []string {
	var names []string
	for _, topo := range schedTopos() {
		for _, d := range schedFamily() {
			names = append(names, fmt.Sprintf("%s %s", d.Display, topo))
		}
	}
	return names
}

// RunSchedCell runs one (load, seed) cell of the sched figure: for each
// topology, the four schedulers against the same Zipf hotspot arrival
// pattern, returning delivered goodput per (topology, scheduler) curve.
func RunSchedCell(load float64, seed int64, quick bool) ([]float64, error) {
	tm := core.DefaultTiming()
	horizonFrames := 800
	if quick {
		horizonFrames = 250
	}
	var vals []float64
	for ti, kind := range schedTopos() {
		var s *Scenario
		var err error
		if kind == "grid" {
			s, err = GridScenario(flowDensity, 5200+seed)
		} else {
			s, err = UniformScenario(flowDensity, 5300+seed)
		}
		if err != nil {
			return nil, err
		}
		frame, err := flow.FrameTime(s.Net.Channel, s.Forest, s.Links, tm)
		if err != nil {
			return nil, err
		}
		meanRate := load / frame.Seconds()
		mult, err := traffic.HotspotRates(s.Net.NumNodes(), schedZipfS, 1, schedZipfMax,
			rng.New(flow.DeriveSeed(seed, int64(100+ti))))
		if err != nil {
			return nil, err
		}
		run := flowRun{
			s: s, tm: tm, horizon: des.Time(horizonFrames) * frame, seed: seed, framesPerEpoch: schedFramesPerEpoch,
			rate: func(u int) float64 { return meanRate * mult[u] },
		}
		for ci, d := range schedFamily() {
			g, err := run.goodput(d.Name, int64(10*ti+ci))
			if err != nil {
				return nil, fmt.Errorf("sched cell load=%g seed=%d topo=%s curve=%s: %w",
					load, seed, kind, d.Name, err)
			}
			vals = append(vals, g)
		}
	}
	return vals, nil
}

// FigSched sweeps offered load across the planned grid and the unplanned
// uniform deployment under Zipf hotspot arrivals and plots the goodput each
// scheduler family member delivers — who wins where. Below saturation the
// schedulers track the offered line together; beyond it MaxWeight's
// backlog×rate re-ranking holds the skewed queues balanced and stays on top,
// the static greedy order trails it, FanZhang pays its class-partition
// premium, and TDMA floors the figure. The companion exact-gap numbers for
// the same family are produced by the gap harness tests (see DESIGN.md).
func FigSched(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure(
		"Sched: Scheduler Family Goodput vs Offered Load (Zipf hotspot arrivals)",
		"offered load (x static capacity)", "delivered goodput (pkt/s)")
	xs := SchedLoads(opts.Quick)
	names := schedCurveNames()
	err := runGrid(fig, xs, names, opts, func(xi, si int) ([]float64, error) {
		return RunSchedCell(xs[xi], int64(si), opts.Quick)
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
