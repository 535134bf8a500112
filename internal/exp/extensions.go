package exp

import (
	"fmt"

	"scream/internal/mote"
	"scream/internal/rng"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/stats"
	"scream/internal/traffic"
)

// AblationBalancedRouting compares the paper's min-hop/random-tie-break
// forest against the load-balanced variant (route.BuildForestBalanced):
// same hop counts, evener gateway load, and the effect on TD and on the
// GreedyPhysical schedule length. This probes the Section IV-D observation
// that balanced trees reduce the aggregated traffic term of the complexity.
func AblationBalancedRouting(opts Options) (*stats.Figure, error) {
	names := []string{
		"TD (random tie-break)",
		"TD (balanced)",
		"greedy length (random tie-break)",
		"greedy length (balanced)",
	}
	xs := Densities(opts.Quick)
	return runGrid("Ablation: routing-forest balancing", "density (nodes/km^2)", "slots", xs, names, opts, func(xi, si int) ([]float64, error) {
		s, err := GridScenario(xs[xi], 111+int64(si))
		if err != nil {
			return nil, err
		}
		// One RNG feeds demand draw, then the plain forest, then the
		// balanced forest — the same consumption order for every cell, so
		// results are a pure function of (xi, si).
		rng := rng.New(222 + int64(si))
		nodeDemand, err := traffic.Uniform(s.Net.NumNodes(), 1, 10, rng)
		if err != nil {
			return nil, err
		}
		gws := s.Forest.Gateways()
		vals := make([]float64, 4)
		for _, balanced := range []bool{false, true} {
			var f *route.Forest
			if balanced {
				f, err = route.BuildForestBalanced(s.Net.Comm, gws, nodeDemand, rng)
			} else {
				f, err = route.BuildForest(s.Net.Comm, gws, rng)
			}
			if err != nil {
				return nil, err
			}
			links := f.Links()
			demands, err := f.LinkDemands(links, nodeDemand)
			if err != nil {
				return nil, err
			}
			g, err := sched.GreedyPhysical(s.Net.Channel, links, demands, sched.ByHeadIDDesc)
			if err != nil {
				return nil, err
			}
			if balanced {
				vals[1] = float64(sched.LinearLength(demands))
				vals[3] = float64(g.Length())
			} else {
				vals[0] = float64(sched.LinearLength(demands))
				vals[2] = float64(g.Length())
			}
		}
		return vals, nil
	})
}

// AblationMoteRelays sweeps the number of relays in the mote experiment at a
// reliable SCREAM size: SCREAM's core assumption is that carrier sensing is
// COLLISION-RESILIENT, so detection error must stay negligible as more
// relays scream on top of each other.
func AblationMoteRelays(opts Options) (*stats.Figure, error) {
	relays := []int{1, 2, 4, 6, 9, 12}
	screams := 600
	if opts.Quick {
		relays = []int{1, 6, 12}
		screams = 120
	}
	xs := make([]float64, len(relays))
	for i, r := range relays {
		xs[i] = float64(r)
	}
	fig, err := runGrid("Ablation: SCREAM collision resilience vs relay count", "relays", "% error", xs, []string{"detection error (24-byte screams)"}, opts, func(xi, si int) ([]float64, error) {
		cfg := mote.DefaultConfig(24)
		cfg.NumRelays = relays[xi]
		cfg.Screams = screams
		cfg.Seed = int64(si + 1)
		res, err := mote.Run(cfg)
		if err != nil {
			return nil, err
		}
		return []float64{res.ErrorPercent}, nil
	})
	if err != nil {
		return nil, err
	}
	// Sanity: resilience means no blow-up at high relay counts.
	series := fig.Series[0]
	last := series.Points[len(series.Points)-1]
	if last.Y > 25 {
		return fig, fmt.Errorf("exp: collision resilience violated: %.1f%% error with %d relays", last.Y, relays[len(relays)-1])
	}
	return fig, nil
}
