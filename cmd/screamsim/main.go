// Command screamsim runs one scheduling scenario end to end: it builds a
// mesh (planned grid or unplanned uniform), computes schedules with the
// requested algorithms, verifies them against the physical interference
// model and prints the comparison.
//
// Example:
//
//	screamsim -topology grid -rows 8 -cols 8 -step 30 -protocols greedy,fdd,pdd -p 0.2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scream"
	"scream/internal/buildinfo"
)

func main() {
	var (
		topology = flag.String("topology", "grid", "grid or uniform")
		rows     = flag.Int("rows", 8, "grid rows")
		cols     = flag.Int("cols", 8, "grid cols")
		step     = flag.Float64("step", 30, "grid step (m)")
		n        = flag.Int("n", 64, "uniform: node count")
		side     = flag.Float64("side", 250, "uniform: region side (m)")
		minTx    = flag.Float64("mintx", 16, "uniform: min TX power (dBm)")
		maxTx    = flag.Float64("maxtx", 22, "uniform: max TX power (dBm)")
		txPower  = flag.Float64("tx", 0, "grid: TX power in dBm (0 = derive from step)")
		protos   = flag.String("protocols", "greedy,fdd,pdd", "comma-separated: greedy, fdd, pdd")
		p        = flag.Float64("p", 0.2, "PDD activation probability")
		seed     = flag.Int64("seed", 1, "random seed")
		packet   = flag.Bool("packet-level", false, "run protocols on the packet-level radio backend")
		k        = flag.Int("k", 0, "SCREAM length in slots (0 = interference diameter)")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	if err := run(*topology, *rows, *cols, *step, *n, *side, *minTx, *maxTx, *txPower, *protos, *p, *seed, *packet, *k); err != nil {
		fmt.Fprintln(os.Stderr, "screamsim:", err)
		os.Exit(1)
	}
}

func run(topology string, rows, cols int, step float64, n int, side, minTx, maxTx, txPower float64, protos string, p float64, seed int64, packet bool, k int) error {
	var t scream.TopologySpec
	switch topology {
	case "grid":
		t = scream.TopologySpec{Kind: "grid", Rows: rows, Cols: cols, StepMeters: step, TxPowerDBm: txPower}
	case "uniform":
		t = scream.TopologySpec{Kind: "uniform", Nodes: n, SideMeters: side, MinTxDBm: minTx, MaxTxDBm: maxTx}
	default:
		return fmt.Errorf("unknown topology %q", topology)
	}
	mesh, err := scream.NewMesh(t, seed)
	if err != nil {
		return err
	}

	fmt.Printf("mesh: %d nodes, %d links, gateways %v\n", mesh.NumNodes(), len(mesh.Links), mesh.Gateways())
	fmt.Printf("      interference diameter ID(G_S) = %d, neighbor density rho = %.1f\n",
		mesh.InterferenceDiameter(), mesh.NeighborDensity())
	fmt.Printf("      total demand TD = %d (linear schedule length)\n\n", mesh.TotalDemand())

	opts := scream.ProtocolOptions{Seed: seed, PacketLevel: packet, K: k}
	for _, proto := range strings.Split(protos, ",") {
		switch strings.TrimSpace(proto) {
		case "greedy":
			s, err := mesh.GreedySchedule(scream.ByHeadIDDesc)
			if err != nil {
				return err
			}
			if err := mesh.Verify(s); err != nil {
				return fmt.Errorf("greedy schedule failed verification: %w", err)
			}
			fmt.Printf("%-22s %4d slots  %5.1f%% improvement over linear  [verified]\n",
				"GreedyPhysical:", s.Length(), mesh.Improvement(s))
		case "fdd":
			res, err := mesh.RunFDD(opts)
			if err != nil {
				return err
			}
			if err := mesh.Verify(res.Schedule); err != nil {
				return fmt.Errorf("FDD schedule failed verification: %w", err)
			}
			fmt.Printf("%-22s %4d slots  %5.1f%% improvement  exec %.3fs  (%d elections, %d screams)  [verified]\n",
				"FDD:", res.Schedule.Length(), mesh.Improvement(res.Schedule),
				res.ExecTime.Seconds(), res.Elections, res.Screams)
		case "pdd":
			res, err := mesh.RunPDD(p, opts)
			if err != nil {
				return err
			}
			if err := mesh.Verify(res.Schedule); err != nil {
				return fmt.Errorf("PDD schedule failed verification: %w", err)
			}
			fmt.Printf("%-22s %4d slots  %5.1f%% improvement  exec %.3fs  (%d steps, %d screams)  [verified]\n",
				fmt.Sprintf("PDD (p=%.2f):", p), res.Schedule.Length(), mesh.Improvement(res.Schedule),
				res.ExecTime.Seconds(), res.Steps, res.Screams)
		default:
			return fmt.Errorf("unknown protocol %q", proto)
		}
	}
	return nil
}
