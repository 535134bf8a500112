package exp

// The scalability figure: node count swept to 50k, comparing the spatial
// grid-bucket interference engine against the dense n*n gain matrix on
// memory footprint and per-admission cost. Unlike the paper figures this one
// measures the simulator itself, so it mixes deterministic series (schedule
// length, engine memory) with wall-clock series (build time, ns per
// admission) — the deterministic series come first so tooling can compare a
// stable column prefix across runs (scripts/check_scale_determinism.sh).
//
// The deployment is synthetic: a square grid at scaleStepM spacing with the
// default radio environment and one unit-demand link per node toward the
// origin corner. Building it is O(n) — it deliberately bypasses topo.Build,
// whose O(n^2) graph construction would dominate the sweep long before the
// engines under study do.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"scream/internal/geom"
	"scream/internal/phys"
	"scream/internal/phys/spatial"
	"scream/internal/sched"
	"scream/internal/stats"
	"scream/internal/topo"
)

// scaleStepM is the grid spacing of the synthetic deployment; the TX power
// is derived to reach a neighbor with the usual 5% slack, mirroring
// topo.NewGrid's derivation.
const (
	scaleStepM  = 30.0
	scaleSlack  = 1.05
	scaleSeries = 7
)

// ScaleSizes returns the node-count sweep of FigScale.
func ScaleSizes(quick bool) []int {
	if quick {
		return []int{256, 1024, 4096}
	}
	return []int{1000, 5000, 10000, 20000, 50000}
}

// scaleDenseCap bounds the node count at which the dense engine is actually
// built and measured: the n*n gain matrix at 50k nodes is 20 GB, which is the
// point of the figure, not something to allocate. Beyond the cap the dense
// wall-clock series reports the 0 sentinel (its analytic memory series keeps
// growing).
func scaleDenseCap(quick bool) int {
	if quick {
		return 1024
	}
	return 4096
}

// scaleSampleCap bounds how many of the deployment's links one cell admits
// (deterministic stride sample): enough admissions to average over, without
// the 50k-node cell scheduling 50k links against a capped dense run's 4k.
func scaleSampleCap(quick bool) int {
	if quick {
		return 1000
	}
	return 4000
}

// scaleDeployment builds the synthetic n-node grid: positions, homogeneous
// derived TX power, and one unit-demand link per non-origin node toward the
// origin corner (left neighbor when the row allows, else straight up).
func scaleDeployment(n int) (pos []geom.Point, pw []float64, links []phys.Link) {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	p := topo.DefaultParams()
	power := p.PathLoss.PowerForRange(scaleStepM*scaleSlack, p.NoiseMW, p.Beta)
	pos = make([]geom.Point, n)
	pw = make([]float64, n)
	links = make([]phys.Link, 0, n-1)
	for i := 0; i < n; i++ {
		pos[i] = geom.Point{X: float64(i%cols) * scaleStepM, Y: float64(i/cols) * scaleStepM}
		pw[i] = power
		if i == 0 {
			continue
		}
		to := i - cols
		if i%cols > 0 {
			to = i - 1
		}
		links = append(links, phys.Link{From: i, To: to})
	}
	return pos, pw, links
}

// sampleLinks returns a deterministic stride sample of at most cap links.
func sampleLinks(links []phys.Link, cap int) []phys.Link {
	if len(links) <= cap {
		return links
	}
	stride := (len(links) + cap - 1) / cap
	out := make([]phys.Link, 0, cap)
	for i := 0; i < len(links); i += stride {
		out = append(out, links[i])
	}
	return out
}

// admitAll runs the greedy first-fit admission pass over the sampled links
// (unit demands) and reports the schedule length, wall time per admission and
// allocated bytes per admission.
func admitAll(eng phys.Engine, sample []phys.Link) (slots int, nsPerAdm, bytesPerAdm float64, err error) {
	demands := make([]int, len(sample))
	for i := range demands {
		demands[i] = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	s, err := sched.GreedyPhysical(eng, sample, demands, sched.ByHeadIDDesc)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, 0, err
	}
	adm := float64(len(sample))
	return s.Length(), float64(elapsed.Nanoseconds()) / adm,
		float64(after.TotalAlloc-before.TotalAlloc) / adm, nil
}

// denseChannel builds the exact dense engine over the synthetic deployment —
// the O(n^2) structure the spatial index replaces: one n×n gain matrix,
// which the channel adopts, so the "dense matrix MB" series is its size.
func denseChannel(pos []geom.Point, pw []float64) (*phys.Channel, error) {
	p := topo.DefaultParams()
	return phys.NewChannel(pw, phys.BuildGainMatrix(pos, p.PathLoss, nil), p.NoiseMW, p.Beta)
}

// FigScale sweeps the node count to 50k and plots both engines' cost:
// schedule length over a fixed link sample (identical for both engines on
// this deployment — the conservativeness gap, when it appears, shows up
// here), engine memory (the spatial index measured, the dense matrix's
// 8n^2 bytes analytic), index build time, and per-admission time and
// allocation. The dense engine is only exercised up to scaleDenseCap nodes;
// beyond it the dense ns-per-admission series reports 0.
//
// FigScale runs serially and ignores Options.Seeds/Workers: its wall-clock
// series would only be perturbed by co-scheduled cells. It is deliberately
// not part of figgen's "all" set — the timing columns are not reproducible
// byte-for-byte, so it would break the all-output prefix discipline.
func FigScale(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure(
		"Scale: Spatial vs Dense Interference Engine Cost vs Node Count",
		"nodes", "slots / MB / ms / ns per admission / B per admission")
	names := []string{
		// Deterministic prefix — keep these first (see package comment).
		"spatial slots",
		"spatial index MB",
		"dense matrix MB",
		// Measured tail.
		"spatial build ms",
		"spatial admit ns/op",
		"spatial admit B/op",
		"dense admit ns/op",
	}
	if len(names) != scaleSeries {
		return nil, fmt.Errorf("scale: %d series, want %d", len(names), scaleSeries)
	}
	series := make([]*stats.Series, len(names))
	for i, name := range names {
		series[i] = fig.AddSeries(name)
	}
	denseCap := scaleDenseCap(opts.Quick)
	for _, n := range ScaleSizes(opts.Quick) {
		pos, pw, links := scaleDeployment(n)
		sample := sampleLinks(links, scaleSampleCap(opts.Quick))
		p := topo.DefaultParams()

		buildStart := time.Now()
		idx, err := spatial.New(spatial.Config{
			Pos: pos, TxPowerMW: pw,
			PathLoss: p.PathLoss, NoiseMW: p.NoiseMW, Beta: p.Beta,
		})
		if err != nil {
			return nil, fmt.Errorf("scale n=%d: %w", n, err)
		}
		buildMS := float64(time.Since(buildStart).Nanoseconds()) / 1e6

		slots, spatialNS, spatialB, err := admitAll(idx, sample)
		if err != nil {
			return nil, fmt.Errorf("scale n=%d spatial: %w", n, err)
		}

		denseNS := 0.0
		if n <= denseCap {
			ch, err := denseChannel(pos, pw)
			if err != nil {
				return nil, fmt.Errorf("scale n=%d dense: %w", n, err)
			}
			denseSlots, ns, _, err := admitAll(ch, sample)
			if err != nil {
				return nil, fmt.Errorf("scale n=%d dense: %w", n, err)
			}
			denseNS = ns
			// On this sparse grid the spatial bound is tight enough that the
			// engines must agree exactly; a mismatch is a correctness bug, not
			// a measurement.
			if denseSlots > slots {
				return nil, fmt.Errorf("scale n=%d: spatial schedule (%d slots) beats dense (%d) — conservativeness violated",
					n, slots, denseSlots)
			}
		}

		x := float64(n)
		vals := []float64{
			float64(slots),
			float64(idx.MemoryBytes()) / 1e6,
			8 * x * x / 1e6,
			buildMS,
			spatialNS,
			spatialB,
			denseNS,
		}
		for i, v := range vals {
			series[i].Append(x, v, 0)
		}
	}
	return fig, nil
}
