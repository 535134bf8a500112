// Motedemo reproduces the paper's Section V hardware experiment in
// simulation: the SCREAM primitive on Mica2-class motes. An initiator
// screams every 100 ms; six relays in a clique re-scream on detection (their
// transmissions deliberately collide at the monitor); the monitor detects
// screams from a 3-sample moving average of RSSI. The demo sweeps the SCREAM
// size and prints the detection error (Figure 4) plus an RSSI trace excerpt
// (Figure 5).
//
// It has no Example test pinning its output: it builds no mesh, its sweep
// takes most of a second, and internal/mote tests the experiment it drives.
package main

import (
	"fmt"
	"log"
	"strings"

	"scream"
)

func main() {
	fmt.Println("SCREAM-on-motes detection experiment (Section V)")
	fmt.Println("=================================================")
	fmt.Println("8 motes: 1 initiator (2 hops from monitor), 6 relays + monitor in a clique")
	fmt.Println()

	fmt.Printf("%-18s %-12s %s\n", "SCREAM size", "detections", "interval error")
	for _, bytes := range []int{2, 4, 6, 8, 10, 15, 20, 24, 32} {
		cfg := scream.DefaultMoteConfig(bytes)
		cfg.Screams = 400 // demo-sized run; the paper uses 2000
		res, err := scream.RunMoteExperiment(cfg)
		if err != nil {
			log.Fatal(err)
		}
		bar := strings.Repeat("#", int(res.ErrorPercent/2))
		fmt.Printf("%4d bytes %18d %9.1f%%  %s\n", bytes, res.Detections, res.ErrorPercent, bar)
	}

	fmt.Println()
	fmt.Println("RSSI moving average, 24-byte screams (first ~0.6 s; threshold -60 dBm):")
	cfg := scream.DefaultMoteConfig(24)
	cfg.Screams = 8
	res, err := scream.RunMoteExperiment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Render the trace as a tiny vertical ASCII chart: one row per ~4 samples.
	for i := 0; i < len(res.Trace); i += 4 {
		p := res.Trace[i]
		col := int((p.DBm + 85) * 1.2)
		if col < 0 {
			col = 0
		}
		if col > 60 {
			col = 60
		}
		marker := strings.Repeat(" ", col) + "*"
		thr := int((-60 + 85) * 1.2)
		line := []byte(fmt.Sprintf("%-62s", marker))
		if thr < len(line) && line[thr] == ' ' {
			line[thr] = '|'
		}
		fmt.Printf("%7.1f ms %s %6.1f dBm\n", float64(p.At)/1e6, string(line), p.DBm)
	}
	fmt.Println("                                        ('|' marks the -60 dBm threshold)")
}
