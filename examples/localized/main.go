// Localized demonstrates Theorem 1 constructively: no localized algorithm —
// one that decides whether a link can join a slot from its k-hop
// neighborhood only — can guarantee feasible schedules under the physical
// interference model. We build a long line network with short links spaced
// so that every link is feasible with everything a k-hop scheduler can see,
// yet the accumulated interference of the far-away links it cannot see
// pushes receivers below the SINR threshold. The global verifier catches
// what the localized scheduler cannot.
package main

import (
	"fmt"
	"log"

	"scream"
)

func main() {
	fmt.Println("Theorem 1: impossibility of localized distributed scheduling")
	fmt.Println("=============================================================")

	const (
		nodes = 140
		step  = 25.0 // meters between adjacent nodes
		sep   = 5    // one link every sep nodes
	)
	found := false
	for _, slack := range []float64{1.02, 1.03, 1.05, 1.08} {
		mesh, err := scream.NewMesh(scream.TopologySpec{
			Kind: "line", Nodes: nodes, StepMeters: step, RangeSlack: slack,
		}, 1)
		if err != nil {
			log.Fatal(err)
		}
		// One short link every `sep` nodes, all with unit demand.
		var links []scream.Link
		for i := 0; i+1 < nodes; i += sep {
			links = append(links, scream.Link{From: i, To: i + 1})
		}
		demands := make([]int, len(links))
		for i := range demands {
			demands[i] = 1
		}
		k := sep - 2 // the scheduler sees strictly less than the link spacing

		local, err := mesh.LocalizedGreedyFor(links, demands, k, scream.ByHeadIDDesc)
		if err != nil {
			log.Fatal(err)
		}
		global, err := mesh.GreedyScheduleFor(links, demands, scream.ByHeadIDDesc)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("\nrange slack %.2f: %d links on a %d-node line, k = %d hops\n",
			slack, len(links), nodes, k)
		fmt.Printf("  localized greedy: %2d slots — ", local.Length())
		if err := mesh.VerifyFor(links, demands, local); err != nil {
			fmt.Printf("INFEASIBLE: %v\n", err)
			found = true
		} else {
			fmt.Println("feasible (this slack has enough SINR margin)")
		}
		fmt.Printf("  global greedy:    %2d slots — ", global.Length())
		if err := mesh.VerifyFor(links, demands, global); err != nil {
			log.Fatalf("global greedy must never be infeasible: %v", err)
		}
		fmt.Println("feasible (always)")
	}

	fmt.Println()
	if found {
		fmt.Println("At tight SINR margins the k-hop scheduler packed links that are pairwise")
		fmt.Println("fine locally but jointly infeasible: exactly the Theorem 1 situation, and")
		fmt.Println("why SCREAM is a *global* primitive rather than a localized gossip.")
	} else {
		fmt.Println("unexpected: no slack value exhibited the failure (constants need retuning)")
	}
}
