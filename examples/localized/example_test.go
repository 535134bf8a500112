package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// Theorem 1: impossibility of localized distributed scheduling
	// =============================================================
	//
	// range slack 1.02: 28 links on a 140-node line, k = 3 hops
	//   localized greedy:  1 slots — INFEASIBLE: sched: slot 0 is infeasible under the physical interference model: [135->136 130->131 125->126 120->121 115->116 110->111 105->106 100->101 95->96 90->91 85->86 80->81 75->76 70->71 65->66 60->61 55->56 50->51 45->46 40->41 35->36 30->31 25->26 20->21 15->16 10->11 5->6 0->1]
	//   global greedy:     2 slots — feasible (always)
	//
	// range slack 1.03: 28 links on a 140-node line, k = 3 hops
	//   localized greedy:  1 slots — INFEASIBLE: sched: slot 0 is infeasible under the physical interference model: [135->136 130->131 125->126 120->121 115->116 110->111 105->106 100->101 95->96 90->91 85->86 80->81 75->76 70->71 65->66 60->61 55->56 50->51 45->46 40->41 35->36 30->31 25->26 20->21 15->16 10->11 5->6 0->1]
	//   global greedy:     2 slots — feasible (always)
	//
	// range slack 1.05: 28 links on a 140-node line, k = 3 hops
	//   localized greedy:  1 slots — INFEASIBLE: sched: slot 0 is infeasible under the physical interference model: [135->136 130->131 125->126 120->121 115->116 110->111 105->106 100->101 95->96 90->91 85->86 80->81 75->76 70->71 65->66 60->61 55->56 50->51 45->46 40->41 35->36 30->31 25->26 20->21 15->16 10->11 5->6 0->1]
	//   global greedy:     2 slots — feasible (always)
	//
	// range slack 1.08: 28 links on a 140-node line, k = 3 hops
	//   localized greedy:  1 slots — INFEASIBLE: sched: slot 0 is infeasible under the physical interference model: [135->136 130->131 125->126 120->121 115->116 110->111 105->106 100->101 95->96 90->91 85->86 80->81 75->76 70->71 65->66 60->61 55->56 50->51 45->46 40->41 35->36 30->31 25->26 20->21 15->16 10->11 5->6 0->1]
	//   global greedy:     4 slots — feasible (always)
	//
	// At tight SINR margins the k-hop scheduler packed links that are pairwise
	// fine locally but jointly infeasible: exactly the Theorem 1 situation, and
	// why SCREAM is a *global* primitive rather than a localized gossip.
}
