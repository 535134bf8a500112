package exp

import (
	"scream/internal/mote"
	"scream/internal/stats"
)

// Fig4 regenerates Figure 4: percentage error in SCREAM detection vs SCREAM
// size in bytes, on the mote experiment (8 motes, 6 relays in a clique,
// initiator two hops from the monitor, 2000 screams at 100 ms).
func Fig4(opts Options) (*stats.Figure, error) {
	sizes := []int{2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32}
	screams := 2000
	if opts.Quick {
		sizes = []int{2, 8, 24}
		screams = 150
	}
	xs := make([]float64, len(sizes))
	for i, b := range sizes {
		xs[i] = float64(b)
	}
	return runGrid("Fig 4: Percentage Error in SCREAM detection vs SCREAM size (bytes)", "SCREAM size (bytes)", "% error", xs, []string{"detection error"}, opts, func(xi, si int) ([]float64, error) {
		cfg := mote.DefaultConfig(sizes[xi])
		cfg.Screams = screams
		cfg.Seed = int64(si + 1)
		res, err := mote.Run(cfg)
		if err != nil {
			return nil, err
		}
		return []float64{res.ErrorPercent}, nil
	})
}

// Fig5 regenerates Figure 5: a snapshot of the monitor's moving-average RSSI
// for 24-byte screams, showing clean periodic humps above the -60 dBm
// threshold. It is a single deterministic run producing a trace, not a
// (x, seed) grid, so it does not go through the cell engine.
func Fig5(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure("Fig 5: Moving Average of RSSI values (24-byte SCREAM)", "time (ms)", "RSSI moving average (dBm)")
	cfg := mote.DefaultConfig(24)
	cfg.Screams = 20
	if opts.Quick {
		cfg.Screams = 8
	}
	res, err := mote.Run(cfg)
	if err != nil {
		return nil, err
	}
	series := fig.AddSeries("RSSI MA")
	for _, p := range res.Trace {
		series.Append(float64(p.At)/1e6, p.DBm, 0)
	}
	thr := fig.AddSeries("threshold")
	if len(res.Trace) > 0 {
		first := res.Trace[0].At
		last := res.Trace[len(res.Trace)-1].At
		thr.Append(float64(first)/1e6, float64(cfg.ThresholdDBm), 0)
		thr.Append(float64(last)/1e6, float64(cfg.ThresholdDBm), 0)
	}
	return fig, nil
}
