package exp

// The multi-channel figure: delivered goodput AND one-shot schedule length
// vs channel count, for the centralized greedy, the distributed protocols
// and the TDMA frame. Orthogonal channels multiply spatial reuse (the
// multicoloring setting of Vieira et al., arXiv:1504.01647; channel-aware
// SINR scheduling of Zhou et al., arXiv:1208.0902): schedules shrink as the
// per-slot channel vector absorbs links that a single channel would
// serialize, and the recovered slots turn into goodput under saturating
// offered load. The sweep also exposes the diminishing return — once the
// radio budget and per-node serialization bind, more channels stop helping.

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/flow"
	"scream/internal/rng"
	"scream/internal/sched"
	"scream/internal/stats"
)

// channelsRadios is the per-node radio count of the channels figure: two
// radios let relay nodes serve two channels per slot, the configuration the
// multi-radio mesh literature treats as the sweet spot. At one channel the
// budget is inert (a half-duplex node joins one transmission per slot
// anyway), so the C=1 column reproduces the single-channel simulator.
const channelsRadios = 2

// channelsLoad is the offered load of the flow runs in units of the
// single-channel static capacity: high enough that every channel count stays
// saturated, so recovered schedule slots show up as delivered goodput.
const channelsLoad = 4.0

// channelsFramesPerEpoch is the schedule-reuse amortization of the channels
// figure. Multi-channel re-scheduling is dearer than single-channel (each
// slot is negotiated in per-channel phases, so an FDD run pays roughly C
// times the elections), which a deployment would amortize over
// correspondingly more frames; 256 keeps the distributed curves data-bound
// across the sweep instead of measuring control cost alone.
const channelsFramesPerEpoch = 256

// ChannelCounts returns the channel-count sweep of FigChannels: the
// power-of-two ladder mesh radios actually ship (802.11 deployments bond or
// split into 1, 2, 4 and 8 orthogonal channels) plus the 6-channel point of
// the full sweep.
func ChannelCounts(quick bool) []int {
	if quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 6, 8}
}

// channelsCurveNames are FigChannels' series: delivered goodput per
// scheduler, then the one-shot schedule length per scheduler (the figure
// carries both quality metrics of the sweep; see EXPERIMENTS.md).
func channelsCurveNames() []string {
	return []string{
		"Centralized", "FDD", "PDD p=0.8", "TDMA",
		"Centralized slots", "FDD slots", "PDD p=0.8 slots", "TDMA slots",
	}
}

// channelsScheduleLengths runs each scheduler once against the scenario's
// static demand vector and returns the four schedule lengths, verifying
// every schedule against the naive per-channel model.
func channelsScheduleLengths(s *Scenario, tm core.Timing, channels int, seed int64) ([]float64, error) {
	verify := func(name string, sc *sched.Schedule) error {
		if err := sc.VerifyMulti(s.Net.Channel, channels, channelsRadios, s.Links, s.Demands); err != nil {
			return fmt.Errorf("%s C=%d: %w", name, channels, err)
		}
		return nil
	}
	greedy, err := sched.GreedyPhysicalMulti(s.Net.Channel, channels, channelsRadios, s.Links, s.Demands, sched.ByHeadIDDesc)
	if err != nil {
		return nil, err
	}
	if err := verify("greedy", greedy); err != nil {
		return nil, err
	}
	proto := func(variant core.Variant, p float64, protoSeed int64) (*sched.Schedule, error) {
		b, err := core.NewIdealBackend(s.Net.Channel, s.Net.Sens, 0, tm, false)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			Variant: variant, Links: s.Links, Demands: s.Demands, Backend: b,
			NumChannels: channels, NumRadios: channelsRadios,
		}
		if variant == core.PDD {
			cfg.Probability = p
			cfg.RNG = rng.New(protoSeed)
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	}
	fdd, err := proto(core.FDD, 0, seed)
	if err != nil {
		return nil, err
	}
	if err := verify("FDD", fdd); err != nil {
		return nil, err
	}
	pdd, err := proto(core.PDD, 0.8, seed)
	if err != nil {
		return nil, err
	}
	if err := verify("PDD", pdd); err != nil {
		return nil, err
	}
	tdma, _, err := flow.NewTDMAScheduler(s.Links, channels, channelsRadios).Build(s.Demands, 0)
	if err != nil {
		return nil, err
	}
	if err := verify("TDMA", tdma); err != nil {
		return nil, err
	}
	return []float64{
		float64(greedy.Length()), float64(fdd.Length()),
		float64(pdd.Length()), float64(tdma.Length()),
	}, nil
}

// RunChannelsCell runs one (channel-count, seed) cell: the four flow runs
// on runner (delivered goodput under saturating load) followed by the four
// one-shot schedule lengths, aligned with channelsCurveNames.
func RunChannelsCell(runner *flow.Runner, channels int, seed int64, quick bool) ([]float64, error) {
	s, err := GridScenario(flowDensity, 4600+seed)
	if err != nil {
		return nil, err
	}
	tm := core.DefaultTiming()
	frame, err := flow.FrameTime(s.Net.Channel, s.Forest, s.Links, tm)
	if err != nil {
		return nil, err
	}
	rate := channelsLoad / frame.Seconds()
	// The 256-frame schedule reuse makes epochs long; even the quick run
	// needs enough horizon for the distributed schedulers to amortize their
	// first control phase, or the figure measures startup transients.
	horizonFrames := 1200
	if quick {
		horizonFrames = 900
	}
	// The C=1 column builds the single-channel schedulers whatever the radio
	// count, so it reproduces FigFlowLoad's code path exactly.
	run := flowRun{
		runner: runner, s: s, tm: tm, horizon: des.Time(horizonFrames) * frame, seed: seed,
		channels: channels, radios: channelsRadios, framesPerEpoch: channelsFramesPerEpoch,
		rate: func(int) float64 { return rate },
	}
	vals := make([]float64, len(flowCurves), 2*len(flowCurves))
	for ci, name := range flowCurves {
		if vals[ci], err = run.goodput(name, int64(ci)); err != nil {
			return nil, fmt.Errorf("channels cell C=%d seed=%d curve=%s: %w", channels, seed, name, err)
		}
	}
	lengths, err := channelsScheduleLengths(s, tm, channels, seed)
	if err != nil {
		return nil, fmt.Errorf("channels cell C=%d seed=%d: %w", channels, seed, err)
	}
	return append(vals, lengths...), nil
}

// FigChannels sweeps the orthogonal channel count and plots, for each
// scheduler, the goodput delivered under saturating offered load and the
// one-shot schedule length for the scenario's static demands. Schedules
// shrink and goodput rises as channels multiply spatial reuse; the gains
// taper once the two-radio budget and per-node serialization dominate, and
// the distributed protocols additionally pay the extra control rounds of the
// per-channel slot phases.
func FigChannels(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure(
		"Channels: Goodput and Schedule Length vs Channel Count (multi-channel)",
		"orthogonal channels", "goodput (pkt/s) / schedule slots")
	counts := ChannelCounts(opts.Quick)
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	names := channelsCurveNames()
	err := runGridWith(fig, xs, names, opts, func(r *flow.Runner, xi, si int) ([]float64, error) {
		return RunChannelsCell(r, counts[xi], int64(si), opts.Quick)
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
