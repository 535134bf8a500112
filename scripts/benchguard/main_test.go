package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: scream
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFlowEpoch        	    3330	    659820 ns/op	       731.0 delivered_pkts
BenchmarkGreedyPhysical64 	    4713	    519689 ns/op
BenchmarkSlotStateVsNaive/grid64/incremental         	 2916570	       435.6 ns/op
BenchmarkFDDRun64-2              	       1	  14508091 ns/op	  207450 B/op	    1664 allocs/op
PASS
`

func TestParseBenchKeepsMinimumAcrossRepeats(t *testing.T) {
	repeated := "BenchmarkX \t 1 \t 500 ns/op\nBenchmarkX \t 1 \t 300 ns/op\nBenchmarkX \t 1 \t 400 ns/op\n"
	got, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"] != 300 {
		t.Fatalf("BenchmarkX = %v, want the minimum 300", got["BenchmarkX"])
	}
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkFlowEpoch":                           659820,
		"BenchmarkGreedyPhysical64":                    519689,
		"BenchmarkSlotStateVsNaive/grid64/incremental": 435.6,
		// A -benchmem line: the trailing B/op and allocs/op columns must
		// not disturb the ns/op parse.
		"BenchmarkFDDRun64": 14508091,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 1000}
	// B injected with a 50% slowdown: must fail a 30% gate.
	fresh := map[string]float64{"BenchmarkA": 110, "BenchmarkB": 1500}
	table, failures := compare(base, fresh, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkB") {
		t.Fatalf("want exactly BenchmarkB to fail, got %v", failures)
	}
	if !strings.Contains(table, "BenchmarkA") || !strings.Contains(table, "+10.0%") {
		t.Errorf("table should show the passing delta:\n%s", table)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100}
	fresh := map[string]float64{"BenchmarkA": 129, "BenchmarkNew": 5}
	table, failures := compare(base, fresh, 0.30)
	if len(failures) != 0 {
		t.Fatalf("29%% within a 30%% gate must pass, got %v", failures)
	}
	if !strings.Contains(table, "BenchmarkNew") || !strings.Contains(table, "new") {
		t.Errorf("untracked benchmarks should be listed as new:\n%s", table)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := map[string]float64{"BenchmarkGone": 100}
	_, failures := compare(base, map[string]float64{"BenchmarkOther": 50}, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("a vanished tracked benchmark must fail, got %v", failures)
	}
}
