package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// Physical vs protocol interference model
	// ========================================
	// (same 8x8 backbone and demands; TD = serialized length)
	//
	// TX power        TD |  protocol   SINR-violating |  physical   verified
	//     14dBm      351 |    155 sl       108 ( 70%) |    274 sl        yes
	//     17dBm      351 |    206 sl       109 ( 53%) |    281 sl        yes
	//     20dBm      351 |    263 sl        61 ( 23%) |    304 sl        yes
	//     23dBm      351 |    348 sl         3 (  1%) |    331 sl        yes
	//
	// At 14-20 dBm the protocol model packs tighter slots than SINR allows —
	// those slots would fail on air. At 23 dBm its carrier-sense exclusion is
	// so wide it falls back to full serialization (TD slots) while the physical
	// model still finds verified spatial reuse. The physical schedules are the
	// only ones that are simultaneously correct and shorter than serialized.
}
