// Unplanned reproduces the paper's second evaluation scenario (Figure 7): an
// unplanned mesh — 64 routers dropped uniformly at random, each with a
// different transmit power (as real deployments end up after years of organic
// growth) — scheduled by the distributed protocols over the packet-level
// radio backend with skewed clocks, demonstrating that the approach does not
// depend on planned placement or homogeneous hardware.
//
// Unlike the other mesh examples it has no Example test pinning its output:
// packet-level FDD on 64 nodes takes about 10 s, too long for every go test
// run.
package main

import (
	"fmt"
	"log"

	"scream"
)

func main() {
	mesh, err := scream.NewMesh(scream.TopologySpec{
		Kind:       "uniform",
		Nodes:      64,
		SideMeters: 260,
		MinTxDBm:   4, // heterogeneous radios spanning 6 dB
		MaxTxDBm:   10,
	}, 19)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Unplanned heterogeneous mesh (Figure 7 scenario)")
	fmt.Println("=================================================")
	fmt.Printf("%d nodes in %.0fm x %.0fm, gateways %v\n",
		mesh.NumNodes(), mesh.Network.Region.Width(), mesh.Network.Region.Height(), mesh.Gateways())
	fmt.Printf("TD = %d, ID(G_S) = %d, rho = %.1f\n\n",
		mesh.TotalDemand(), mesh.InterferenceDiameter(), mesh.NeighborDensity())

	greedy, err := mesh.GreedySchedule(scream.ByHeadIDDesc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized GreedyPhysical: %d slots (%.1f%% over linear)\n",
		greedy.Length(), mesh.Improvement(greedy))

	// Ideal backend first.
	fdd, err := mesh.RunFDD(scream.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FDD (ideal backend):        %d slots (%.1f%% over linear), exec %.3fs\n",
		fdd.Schedule.Length(), mesh.Improvement(fdd.Schedule), fdd.ExecTime.Seconds())

	// Then the packet-level radio backend: every SCREAM slot and handshake
	// is simulated with per-node clock offsets and energy detection.
	pkt, err := mesh.RunFDD(scream.ProtocolOptions{PacketLevel: true, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := mesh.Verify(pkt.Schedule); err != nil {
		log.Fatalf("packet-level schedule failed verification: %v", err)
	}
	fmt.Printf("FDD (packet-level radio):   %d slots (%.1f%% over linear), exec %.3fs\n",
		pkt.Schedule.Length(), mesh.Improvement(pkt.Schedule), pkt.ExecTime.Seconds())

	pdd, err := mesh.RunPDD(0.8, scream.ProtocolOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PDD p=0.8 (ideal backend):  %d slots (%.1f%% over linear), exec %.3fs\n\n",
		pdd.Schedule.Length(), mesh.Improvement(pdd.Schedule), pdd.ExecTime.Seconds())

	same := fdd.Schedule.Equal(pkt.Schedule) && fdd.Schedule.Equal(greedy)
	fmt.Printf("ideal FDD == packet-level FDD == centralized greedy: %v\n", same)
}
