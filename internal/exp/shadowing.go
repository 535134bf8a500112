package exp

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/phys"
	"scream/internal/rng"
	"scream/internal/sched"
	"scream/internal/stats"
	"scream/internal/topo"
)

// AblationShadowing re-runs the Figure 6 operating point under log-normal
// shadowing of increasing sigma (the paper's propagation model is log-normal
// with path-loss exponent 3; the headline figures use its deterministic
// component). Two questions: does the scheduling pipeline stay correct when
// link gains are irregular (every schedule must still verify — the SINR
// machinery never assumed geometry), and how does irregularity move the
// schedule-length improvement.
func AblationShadowing(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure("Ablation: log-normal shadowing", "shadowing sigma (dB)", "% improvement over linear")
	sigmas := []float64{0, 2, 4, 6, 8}
	if opts.Quick {
		sigmas = []float64{0, 4, 8}
	}
	names := []string{"GreedyPhysical improvement", "interference diameter"}
	err := runGrid(fig, sigmas, names, opts, func(xi, si int) ([]float64, error) {
		sigma := sigmas[xi]
		s, err := shadowedGridScenario(5000, sigma, 137+int64(si))
		if err != nil {
			return nil, err
		}
		imp, err := RunCentralized(s)
		if err != nil {
			return nil, fmt.Errorf("sigma %g seed %d: %w", sigma, si, err)
		}
		return []float64{imp, float64(s.Net.InterferenceDiameter())}, nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// shadowedGridScenario is GridScenario with log-normal shadowing; draws are
// retried (with fresh shadowing) until the communication graph is connected,
// since deep fades can sever the thin-margin grid.
func shadowedGridScenario(density, sigma float64, seed int64) (*Scenario, error) {
	side := topo.SideForDensity(64, density)
	step := side / 7
	p := topo.DefaultParams()
	p.ShadowSigmaDB = sigma
	// Shadowing needs margin to leave links alive; use a slightly hotter
	// radio than the headline figures.
	power := phys.DBm(gridPowerDBm + 6).MilliWatts()
	for attempt := 0; attempt < 25; attempt++ {
		rng := rng.New(seed + int64(1000*attempt))
		net, err := topo.NewGrid(topo.GridConfig{
			Rows: 8, Cols: 8, Step: step, TxPowerMW: power, Params: p,
		}, rng)
		if err != nil {
			return nil, err
		}
		if !net.Connected() || net.InterferenceDiameter() < 0 {
			continue
		}
		s, err := finishScenario(net, seed)
		if err != nil {
			return nil, err
		}
		// Every link must be schedulable alone, or the instance is
		// degenerate under this fade draw.
		ok := true
		for _, l := range s.Links {
			if !net.Channel.FeasibleSet([]phys.Link{l}) {
				ok = false
				break
			}
		}
		if ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("exp: no connected shadowed grid after 25 draws (sigma=%g)", sigma)
}

// VerifyShadowedPipeline runs FDD end-to-end on a shadowed scenario and
// verifies the schedule — used by tests and callable from the harness.
func VerifyShadowedPipeline(sigma float64, seed int64) error {
	s, err := shadowedGridScenario(5000, sigma, seed)
	if err != nil {
		return err
	}
	imp, res, err := RunProtocol(s, core.FDD, 0, core.DefaultTiming(), 0, seed)
	if err != nil {
		return err
	}
	if imp < 0 {
		return fmt.Errorf("exp: negative improvement %.1f under shadowing", imp)
	}
	want, err := sched.GreedyPhysical(s.Net.Channel, s.Links, s.Demands, sched.ByHeadIDDesc)
	if err != nil {
		return err
	}
	if !res.Schedule.Equal(want) {
		return fmt.Errorf("exp: Theorem 4 equality failed under shadowing sigma=%g", sigma)
	}
	return nil
}
