// Quickstart: build a small planned mesh, run the distributed FDD scheduler,
// verify the schedule against the physical interference model, and show that
// it matches the centralized GreedyPhysical baseline (Theorem 4).
package main

import (
	"fmt"
	"log"

	"scream"
)

func main() {
	// A 5x5 backbone grid, 30 m spacing, four gateways placed by quadrant,
	// per-node demands drawn from [1, 10].
	mesh, err := scream.NewMesh(scream.TopologySpec{
		Kind: "grid", Rows: 5, Cols: 5, StepMeters: 30,
	}, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d nodes, %d links, TD=%d, ID(G_S)=%d\n",
		mesh.NumNodes(), len(mesh.Links), mesh.TotalDemand(), mesh.InterferenceDiameter())

	// The SCREAM primitive: node 7 screams, everyone learns the OR.
	vars := make([]bool, mesh.NumNodes())
	vars[7] = true
	out, err := mesh.Scream(vars, scream.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	all := true
	for _, v := range out {
		all = all && v
	}
	fmt.Printf("SCREAM: node 7 screamed, all %d nodes heard it: %v\n", mesh.NumNodes(), all)

	// Run the fully deterministic distributed scheduler.
	res, err := mesh.RunFDD(scream.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := mesh.Verify(res.Schedule); err != nil {
		log.Fatalf("schedule failed verification: %v", err)
	}
	fmt.Printf("FDD: %d slots (%.1f%% better than serialized), computed in %.3fs of protocol time\n",
		res.Schedule.Length(), mesh.Improvement(res.Schedule), res.ExecTime.Seconds())

	// Theorem 4: FDD equals the centralized greedy.
	greedy, err := mesh.GreedySchedule(scream.ByHeadIDDesc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 4 check: FDD schedule == centralized GreedyPhysical: %v\n",
		res.Schedule.Equal(greedy))

	// Print the first few slots.
	for i := 0; i < res.Schedule.Length() && i < 3; i++ {
		fmt.Printf("  slot %d: %v\n", i, res.Schedule.Slot(i))
	}
}
