package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// SCREAM mesh backbone scheduling demo
	// =====================================
	// backbone:  64 nodes, gateways [18 21 42 45]
	// traffic:   60 links, aggregated demand TD = 616 slots serialized
	// radio:     interference diameter 14, neighbor density 3.5
	//
	// scheduler                       slots    improvement    exec time
	// serialized (linear)               616           0.0%            -
	// GreedyPhysical (central)          335          45.6%            -
	// FDD (distributed)                 335          45.6%       8.426s
	// PDD p=0.2 (distributed)           379          38.5%       2.400s
	// PDD p=0.6 (distributed)           469          23.9%       0.854s
	// PDD p=0.8 (distributed)           527          14.4%       0.636s
	//
	// FDD reproduced the centralized schedule exactly (Theorem 4), with no
	// central coordinator: every decision was made through SCREAMs, leader
	// elections (8667) and two-way handshakes (8639 steps).
}
