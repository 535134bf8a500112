// Package exp is the benchmark harness that regenerates every figure of the
// paper's evaluation (Figures 4-9) plus the ablations DESIGN.md calls out.
// Each runner builds the paper's workload, sweeps the paper's parameter,
// runs the protocols and baselines, and emits the same series the paper
// plots, with 95% confidence intervals across seeds.
package exp

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/phys"
	"scream/internal/rng"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/stats"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// Options controls experiment scale.
type Options struct {
	// Seeds is the number of independent runs per point (default 5).
	Seeds int
	// Quick shrinks sweeps and run lengths for use inside go test -bench.
	Quick bool
	// Workers is the number of goroutines the cell-grid engine fans
	// experiment cells across (default runtime.GOMAXPROCS(0)). Output is
	// bit-for-bit identical for any value; see engine.go.
	Workers int
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 2
	}
	return 5
}

// Scenario is one fully built workload: a network plus routing forest, its
// links and per-link aggregated demands — the unit every figure consumes.
// The flow figures additionally forward packets along Forest.
type Scenario struct {
	Net     *topo.Network
	Forest  *route.Forest
	Links   []phys.Link
	Demands []int
}

// TotalDemand returns the serialized (linear) schedule length TD.
func (s *Scenario) TotalDemand() int { return sched.LinearLength(s.Demands) }

// gridPowerDBm is the homogeneous TX power of the planned scenario. 4 dBm
// makes the sparsest deployments behave like the paper's: deep routing
// forests with plentiful spatial reuse (~60% improvement), degrading as the
// density rises and the forest flattens onto the four gateways.
const gridPowerDBm = 4

// GridScenario builds the paper's planned deployment: 64 nodes in an 8x8
// grid sized for the given density (nodes/km^2), 4 quadrant gateways,
// homogeneous TX power, demands uniform in [1,10].
func GridScenario(density float64, seed int64) (*Scenario, error) {
	side := topo.SideForDensity(64, density)
	step := side / 7 // 8 nodes per side span the region
	p := topo.DefaultParams()
	net, err := topo.NewGrid(topo.GridConfig{
		Rows: 8, Cols: 8, Step: step,
		TxPowerMW: phys.DBm(gridPowerDBm).MilliWatts(),
		Params:    p,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("grid scenario: %w", err)
	}
	return finishScenario(net, seed)
}

// UniformScenario builds the paper's unplanned deployment: 64 nodes placed
// uniformly at random with heterogeneous TX power (spanning 6 dB), 4
// quadrant gateways, demands uniform in [1,10].
func UniformScenario(density float64, seed int64) (*Scenario, error) {
	side := topo.SideForDensity(64, density)
	rng := rng.New(seed)
	net, err := topo.NewUniform(topo.UniformConfig{
		N: 64, Side: side,
		MinTxDBm: gridPowerDBm, MaxTxDBm: gridPowerDBm + 6,
		Params: topo.DefaultParams(),
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("uniform scenario: %w", err)
	}
	return finishScenario(net, seed+1)
}

func finishScenario(net *topo.Network, seed int64) (*Scenario, error) {
	rng := rng.New(seed)
	gws, err := topo.QuadrantGateways(net)
	if err != nil {
		return nil, err
	}
	f, err := route.BuildForest(net.Comm, gws, rng)
	if err != nil {
		return nil, err
	}
	nodeDemand, err := traffic.Uniform(net.NumNodes(), 1, 10, rng)
	if err != nil {
		return nil, err
	}
	links := f.Links()
	demands, err := f.LinkDemands(links, nodeDemand)
	if err != nil {
		return nil, err
	}
	return &Scenario{Net: net, Forest: f, Links: links, Demands: demands}, nil
}

// RunCentralized runs GreedyPhysical (head-ID order) on the scenario and
// returns the % improvement over the linear schedule.
func RunCentralized(s *Scenario) (float64, error) {
	sc, err := sched.GreedyPhysical(s.Net.Channel, s.Links, s.Demands, sched.ByHeadIDDesc)
	if err != nil {
		return 0, err
	}
	return sched.ImprovementOverLinear(sc.Length(), s.TotalDemand()), nil
}

// RunProtocol runs FDD or PDD on the scenario over an ideal backend of
// SCREAM length k (0 derives the interference diameter) and returns
// improvement over linear plus the full protocol result.
func RunProtocol(s *Scenario, variant core.Variant, p float64, timing core.Timing, k int, seed int64) (float64, *core.Result, error) {
	b, err := core.NewIdealBackend(s.Net.Channel, s.Net.Sens, k, timing, false)
	if err != nil {
		return 0, nil, err
	}
	cfg := core.Config{
		Variant: variant,
		Links:   s.Links,
		Demands: s.Demands,
		Backend: b,
	}
	if variant == core.PDD {
		cfg.Probability = p
		cfg.RNG = rng.New(seed)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return 0, nil, err
	}
	if err := res.Schedule.Verify(s.Net.Channel, s.Links, s.Demands); err != nil {
		return 0, nil, fmt.Errorf("protocol produced invalid schedule: %w", err)
	}
	return sched.ImprovementOverLinear(res.Schedule.Length(), s.TotalDemand()), res, nil
}

// Densities returns the density sweep (nodes/km^2) of Figures 6-7.
func Densities(quick bool) []float64 {
	if quick {
		return []float64{1000, 10000, 25000}
	}
	return []float64{1000, 2500, 5000, 7500, 10000, 15000, 20000, 25000}
}

type improvementCurve struct {
	name string
	run  func(s *Scenario, seed int64) (float64, error)
}

func improvementFigure(title string, build func(density float64, seed int64) (*Scenario, error), curves []improvementCurve, opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure(title, "density (nodes/km^2)", "% improvement over linear")
	xs := Densities(opts.Quick)
	names := make([]string, len(curves))
	for i, c := range curves {
		names[i] = c.name
	}
	err := runGrid(fig, xs, names, opts, func(xi, si int) ([]float64, error) {
		density := xs[xi]
		s, err := build(density, int64(1000*density)+int64(si))
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(curves))
		for i, c := range curves {
			imp, err := c.run(s, int64(si))
			if err != nil {
				return nil, fmt.Errorf("%s at density %g: %w", c.name, density, err)
			}
			vals[i] = imp
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig6 regenerates Figure 6: schedule-length improvement over linear vs
// density for the planned grid — Centralized, FDD, PDD p in {0.2, 0.6, 0.8}.
func Fig6(opts Options) (*stats.Figure, error) {
	tm := core.DefaultTiming()
	curves := []improvementCurve{
		{"Centralized", func(s *Scenario, _ int64) (float64, error) { return RunCentralized(s) }},
		{"FDD", func(s *Scenario, seed int64) (float64, error) {
			imp, _, err := RunProtocol(s, core.FDD, 0, tm, 0, seed)
			return imp, err
		}},
	}
	for _, p := range []float64{0.2, 0.6, 0.8} {
		p := p
		curves = append(curves, improvementCurve{
			fmt.Sprintf("PDD p=%.1f", p),
			func(s *Scenario, seed int64) (float64, error) {
				imp, _, err := RunProtocol(s, core.PDD, p, tm, 0, seed)
				return imp, err
			},
		})
	}
	return improvementFigure("Fig 6: Schedule Length Improvement for Grid", GridScenario, curves, opts)
}

// Fig7 regenerates Figure 7: the same metric for the unplanned uniform
// deployment with heterogeneous power — Centralized, FDD, PDD p=0.8.
func Fig7(opts Options) (*stats.Figure, error) {
	tm := core.DefaultTiming()
	curves := []improvementCurve{
		{"Centralized", func(s *Scenario, _ int64) (float64, error) { return RunCentralized(s) }},
		{"FDD", func(s *Scenario, seed int64) (float64, error) {
			imp, _, err := RunProtocol(s, core.FDD, 0, tm, 0, seed)
			return imp, err
		}},
		{"PDD p=0.8", func(s *Scenario, seed int64) (float64, error) {
			imp, _, err := RunProtocol(s, core.PDD, 0.8, tm, 0, seed)
			return imp, err
		}},
	}
	return improvementFigure("Fig 7: Schedule Length Improvement for Uniform Random Placement", UniformScenario, curves, opts)
}

// fig8Density is dense enough that the sensitivity graph's interference
// diameter stays below the smallest K in the sweep.
const fig8Density = 15000

// Fig8 regenerates Figure 8: protocol execution time vs SCREAM size (bytes)
// and vs interference diameter bound K, for FDD and PDD (p=0.2).
func Fig8(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure("Fig 8: Execution Time vs SCREAM size and Interference Diameter", "size (bytes) / diameter (slots)", "running time (s)")
	sweep := []int{5, 10, 20, 30, 40, 50, 60}
	if opts.Quick {
		sweep = []int{5, 30, 60}
	}
	type curve struct {
		name    string
		variant core.Variant
		p       float64
		bySize  bool
	}
	curves := []curve{
		{"FDD Scream size (bytes)", core.FDD, 0, true},
		{"PDD Scream size (bytes)", core.PDD, 0.2, true},
		{"FDD Diameter", core.FDD, 0, false},
		{"PDD Diameter", core.PDD, 0.2, false},
	}
	xs := make([]float64, len(sweep))
	for i, x := range sweep {
		xs[i] = float64(x)
	}
	names := make([]string, len(curves))
	for i, c := range curves {
		names[i] = c.name
	}
	err := runGrid(fig, xs, names, opts, func(xi, si int) ([]float64, error) {
		x := sweep[xi]
		s, err := GridScenario(fig8Density, 77+int64(si))
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(curves))
		for i, c := range curves {
			tm := core.DefaultTiming()
			k := 0
			if c.bySize {
				tm.SMBytes = x
			} else {
				k = x
				if id := s.Net.InterferenceDiameter(); k < id {
					return nil, fmt.Errorf("fig8: K=%d below ID=%d; raise fig8Density", k, id)
				}
			}
			_, res, err := RunProtocol(s, c.variant, c.p, tm, k, int64(si))
			if err != nil {
				return nil, err
			}
			vals[i] = res.ExecTime.Seconds()
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig9 regenerates Figure 9: execution time vs clock-skew bound (log-log in
// the paper), for FDD and PDD p=0.2.
func Fig9(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure("Fig 9: Execution Time vs Clock Skew", "clock skew (s)", "running time (s)")
	skews := []des.Time{
		des.Microsecond, 10 * des.Microsecond, 100 * des.Microsecond,
		des.Millisecond, 10 * des.Millisecond, 100 * des.Millisecond, des.Second,
	}
	if opts.Quick {
		skews = []des.Time{des.Microsecond, des.Millisecond, des.Second}
	}
	type curve struct {
		name    string
		variant core.Variant
		p       float64
	}
	curves := []curve{{"FDD", core.FDD, 0}, {"PDD p=0.2", core.PDD, 0.2}}
	xs := make([]float64, len(skews))
	for i, skew := range skews {
		xs[i] = skew.Seconds()
	}
	names := make([]string, len(curves))
	for i, c := range curves {
		names[i] = c.name
	}
	err := runGrid(fig, xs, names, opts, func(xi, si int) ([]float64, error) {
		s, err := GridScenario(fig8Density, 99+int64(si))
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(curves))
		for i, c := range curves {
			tm := core.DefaultTiming()
			tm.SkewBound = skews[xi]
			_, res, err := RunProtocol(s, c.variant, c.p, tm, 0, int64(si))
			if err != nil {
				return nil, err
			}
			vals[i] = res.ExecTime.Seconds()
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
