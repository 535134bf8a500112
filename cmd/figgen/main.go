// Command figgen regenerates the data series behind every figure of the
// SCREAM paper's evaluation (Figures 4-9) and the design ablations.
//
// Usage:
//
//	figgen [-fig all|4|5|6|7|8|9|flow|churn|channels|sched|ablations|scale] [-quick] [-seeds n] [-workers n] [-ascii]
//
// -fig also accepts a comma-separated list (e.g. -fig 6,7,8). The "scale"
// figure (the interference-engine scalability sweep) carries wall-clock
// timing columns and is therefore not included in "all".
//
// Output is one TSV table per figure on stdout (optionally followed by an
// ASCII rendering of the curves).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"scream"
	"scream/internal/buildinfo"
)

type runner struct {
	name string
	run  func(scream.ExperimentOptions) (*scream.Figure, error)
}

func main() {
	var (
		fig     = flag.String("fig", "all", "which figures to regenerate: all, 4, 5, 6, 7, 8, 9, flow, churn, channels, sched, ablations, scale, or a comma-separated list (scale is the engine-scalability sweep and is not part of all)")
		quick   = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		seeds   = flag.Int("seeds", 0, "independent runs per point (0 = default)")
		workers = flag.Int("workers", 0, "concurrent experiment workers (0 = GOMAXPROCS); output is identical for any value")
		ascii   = flag.Bool("ascii", true, "also render ASCII charts")
		obsAddr = flag.String("obs", "", "serve /metrics and /debug/pprof on this address while generating (e.g. :9090)")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	if *obsAddr != "" {
		// Metrics are write-only and the TSV pipeline never reads them, so
		// the figures stay byte-identical with the registry wired in; the
		// exposition surface exists to watch long generations progress and
		// to profile them.
		reg := scream.NewObsRegistry()
		scream.EnableRuntimeMetrics(reg)
		srv, addr, err := scream.ServeObs(*obsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figgen:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	if err := run(os.Stdout, *fig, *quick, *seeds, *workers, *ascii); err != nil {
		fmt.Fprintln(os.Stderr, "figgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, which string, quick bool, seeds, workers int, ascii bool) error {
	opts := scream.ExperimentOptions{Quick: quick, Seeds: seeds, Workers: workers}
	figures := map[string][]runner{
		"4":        {{"Fig4", scream.Fig4}},
		"5":        {{"Fig5", scream.Fig5}},
		"6":        {{"Fig6", scream.Fig6}},
		"7":        {{"Fig7", scream.Fig7}},
		"8":        {{"Fig8", scream.Fig8}},
		"9":        {{"Fig9", scream.Fig9}},
		"flow":     {{"FigFlowLoad", scream.FigFlowLoad}},
		"churn":    {{"FigChurn", scream.FigChurn}},
		"channels": {{"FigChannels", scream.FigChannels}},
		"sched":    {{"FigSched", scream.FigSched}},
		// "scale" is not part of "all": its timing columns are wall-clock
		// measurements, so including it would break the byte-identical
		// output discipline the other figures keep.
		"scale": {{"FigScale", scream.FigScale}},
		"ablations": {
			{"AblationPDDProbability", scream.AblationPDDProbability},
			{"AblationGreedyOrdering", scream.AblationGreedyOrdering},
			{"AblationScreamK", scream.AblationScreamK},
			{"AblationAckModel", scream.AblationAckModel},
			{"AblationFDDSeal", scream.AblationFDDSeal},
			{"AblationBalancedRouting", scream.AblationBalancedRouting},
			{"AblationMoteRelays", scream.AblationMoteRelays},
			{"AblationShadowing", scream.AblationShadowing},
		},
	}
	var selected []runner
	for _, key := range strings.Split(which, ",") {
		key = strings.TrimSpace(key)
		if key == "all" {
			// Newer figures deliberately come last so the output of every
			// older figure stays a byte-identical prefix of earlier builds'.
			for _, k := range []string{"4", "5", "6", "7", "8", "9", "flow", "churn", "ablations", "channels", "sched"} {
				selected = append(selected, figures[k]...)
			}
		} else if rs, ok := figures[key]; ok {
			selected = append(selected, rs...)
		} else {
			return fmt.Errorf("unknown -fig %q", key)
		}
	}

	for _, r := range selected {
		start := time.Now()
		f, err := r.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Fprintf(w, "## %s (generated in %v)\n", r.name, time.Since(start).Round(time.Millisecond))
		if err := f.WriteTSV(w); err != nil {
			return err
		}
		if ascii {
			if err := f.RenderASCII(w, 72, 16); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
