package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// mesh: 25 nodes, 21 links, TD=167, ID(G_S)=8
	// SCREAM: node 7 screamed, all 25 nodes heard it: true
	// FDD: 149 slots (10.8% better than serialized), computed in 0.721s of protocol time
	// Theorem 4 check: FDD schedule == centralized GreedyPhysical: true
	//   slot 0: [5->6 24->19]
	//   slot 1: [5->6 24->19]
	//   slot 2: [5->6 24->19]
}
