// Command topoinspect builds a mesh topology and prints its structural
// properties: communication/sensitivity graph statistics, interference
// diameter, routing forest shape and demand aggregation.
package main

import (
	"flag"
	"fmt"
	"os"

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
		seed     = flag.Int64("seed", 1, "random seed")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	if err := run(*topology, *rows, *cols, *step, *n, *side, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "topoinspect:", err)
		os.Exit(1)
	}
}

func run(topology string, rows, cols int, step float64, n int, side float64, seed int64) error {
	var t scream.TopologySpec
	switch topology {
	case "grid":
		t = scream.TopologySpec{Kind: "grid", Rows: rows, Cols: cols, StepMeters: step}
	case "uniform":
		t = scream.TopologySpec{Kind: "uniform", Nodes: n, SideMeters: side, MinTxDBm: 16, MaxTxDBm: 22}
	default:
		return fmt.Errorf("unknown topology %q", topology)
	}
	mesh, err := scream.NewMesh(t, seed)
	if err != nil {
		return err
	}

	net := mesh.Network
	fmt.Printf("nodes:                  %d\n", mesh.NumNodes())
	fmt.Printf("region:                 %.0fm x %.0fm (%.0f nodes/km^2)\n",
		net.Region.Width(), net.Region.Height(), net.DensityNodesPerSqKm())
	fmt.Printf("communication edges:    %d (avg degree rho = %.2f)\n",
		net.Comm.NumEdges()/2, mesh.NeighborDensity())
	fmt.Printf("sensitivity edges:      %d\n", net.Sens.NumEdges())
	fmt.Printf("connected:              %v\n", net.Connected())
	fmt.Printf("interference diameter:  %d  (SCREAM needs K >= this)\n", mesh.InterferenceDiameter())
	fmt.Printf("gateways:               %v\n", mesh.Gateways())

	maxDepth, totalDemand, maxDemand := 0, 0, 0
	for _, l := range mesh.Links {
		if d := mesh.Forest.Depth(l.From); d > maxDepth {
			maxDepth = d
		}
	}
	for _, d := range mesh.Demands {
		totalDemand += d
		if d > maxDemand {
			maxDemand = d
		}
	}
	fmt.Printf("forest depth:           %d\n", maxDepth)
	fmt.Printf("links to schedule:      %d\n", len(mesh.Links))
	fmt.Printf("total demand TD:        %d (max per-edge %d)\n", totalDemand, maxDemand)
	return nil
}
