package exp

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/sched"
	"scream/internal/stats"
)

// ablationDensity is the operating point for the design-choice ablations: a
// mid-sweep density where spatial reuse is plentiful.
const ablationDensity = 10000

// AblationPDDProbability sweeps PDD's activation probability on a finer grid
// than Figure 6, quantifying the paper's observation that small p packs
// slots slightly better (fewer mutually-interfering simultaneous trials).
func AblationPDDProbability(opts Options) (*stats.Figure, error) {
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if opts.Quick {
		ps = []float64{0.2, 0.5, 0.8}
	}
	tm := core.DefaultTiming()
	names := []string{"PDD improvement", "PDD exec time (s)"}
	return runGrid("Ablation: PDD activation probability", "p", "% improvement over linear", ps, names, opts, func(xi, si int) ([]float64, error) {
		s, err := GridScenario(ablationDensity, 33+int64(si))
		if err != nil {
			return nil, err
		}
		imp, res, err := RunProtocol(s, core.Config{Variant: core.PDD, Probability: ps[xi]}, tm, 0, int64(si))
		if err != nil {
			return nil, err
		}
		return []float64{imp, res.ExecTime.Seconds()}, nil
	})
}

// AblationGreedyOrdering compares GreedyPhysical's edge orderings: the
// head-ID order FDD emulates vs demand-descending vs length-descending.
func AblationGreedyOrdering(opts Options) (*stats.Figure, error) {
	orders := []sched.Ordering{sched.ByHeadIDDesc, sched.ByDemandDesc, sched.ByLengthDesc}
	names := make([]string, len(orders))
	for i, o := range orders {
		names[i] = o.String()
	}
	xs := Densities(opts.Quick)
	return runGrid("Ablation: GreedyPhysical edge ordering", "density (nodes/km^2)", "% improvement over linear", xs, names, opts, func(xi, si int) ([]float64, error) {
		s, err := GridScenario(xs[xi], 55+int64(si))
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(orders))
		for i, o := range orders {
			sc, err := sched.GreedyPhysical(s.Net.Channel, s.Links, s.Demands, o)
			if err != nil {
				return nil, err
			}
			vals[i] = sched.ImprovementOverLinear(sc.Length(), s.TotalDemand())
		}
		return vals, nil
	})
}

// AblationScreamK quantifies the cost of over-provisioning K beyond the true
// interference diameter: schedules are identical, execution time grows
// linearly (correctness only needs K >= ID; Section IV-B).
func AblationScreamK(opts Options) (*stats.Figure, error) {
	multipliers := []float64{1, 1.5, 2, 3, 4, 6}
	if opts.Quick {
		multipliers = []float64{1, 2, 4}
	}
	tm := core.DefaultTiming()
	return runGrid("Ablation: SCREAM length K vs interference diameter", "K / ID(G_S)", "FDD execution time (s)", multipliers, []string{"FDD exec time"}, opts, func(xi, si int) ([]float64, error) {
		s, err := GridScenario(ablationDensity, 66+int64(si))
		if err != nil {
			return nil, err
		}
		id := s.Net.InterferenceDiameter()
		k := int(float64(id) * multipliers[xi])
		if k < id {
			k = id
		}
		_, res, err := RunProtocol(s, core.Config{Variant: core.FDD}, tm, k, int64(si))
		if err != nil {
			return nil, err
		}
		return []float64{res.ExecTime.Seconds()}, nil
	})
}

// AblationAckModel compares the paper's interference model (data + ACK
// sub-slots) against the classic data-only physical model: the data-only
// greedy packs slots tighter but a fraction of its slots are infeasible once
// ACK interference is accounted for.
func AblationAckModel(opts Options) (*stats.Figure, error) {
	names := []string{
		"schedule length (full model)",
		"schedule length (data-only)",
		"% data-only slots infeasible under full model",
	}
	xs := Densities(opts.Quick)
	return runGrid("Ablation: ACK sub-slot modelling", "density (nodes/km^2)", "value", xs, names, opts, func(xi, si int) ([]float64, error) {
		s, err := GridScenario(xs[xi], 88+int64(si))
		if err != nil {
			return nil, err
		}
		full, err := sched.GreedyPhysical(s.Net.Channel, s.Links, s.Demands, sched.ByHeadIDDesc)
		if err != nil {
			return nil, err
		}
		dataOnly, err := sched.GreedyPhysicalDataOnly(s.Net.Channel, s.Links, s.Demands, sched.ByHeadIDDesc)
		if err != nil {
			return nil, err
		}
		// Note: greedy packing is not monotone under constraint
		// relaxation, so the data-only schedule is usually — but not
		// always — the shorter one; the figure reports both.
		bad := sched.CountInfeasibleSlots(s.Net.Channel, dataOnly)
		return []float64{
			float64(full.Length()),
			float64(dataOnly.Length()),
			100 * float64(bad) / float64(dataOnly.Length()),
		}, nil
	})
}

// AblationFDDSeal measures the ASAP-seal extension: identical schedules,
// strictly less execution time.
func AblationFDDSeal(opts Options) (*stats.Figure, error) {
	tm := core.DefaultTiming()
	xs := Densities(opts.Quick)
	return runGrid("Ablation: FDD slot sealing", "density (nodes/km^2)", "FDD execution time (s)", xs, []string{"paper seal", "ASAP seal"}, opts, func(xi, si int) ([]float64, error) {
		s, err := GridScenario(xs[xi], 44+int64(si))
		if err != nil {
			return nil, err
		}
		run := func(asapSeal bool) (*core.Result, error) {
			_, res, err := RunProtocol(s, core.Config{Variant: core.FDD, ASAPSeal: asapSeal}, tm, 0, int64(si))
			return res, err
		}
		rn, err := run(false)
		if err != nil {
			return nil, err
		}
		ra, err := run(true)
		if err != nil {
			return nil, err
		}
		if !rn.Schedule.Equal(ra.Schedule) {
			return nil, fmt.Errorf("ASAP seal changed the schedule at density %g seed %d", xs[xi], si)
		}
		return []float64{rn.ExecTime.Seconds(), ra.ExecTime.Seconds()}, nil
	})
}
