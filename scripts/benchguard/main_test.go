package main

import (
	"path/filepath"
	"reflect"
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

// ns builds a result with no -benchmem columns; withAllocs one with just
// allocs/op, withMem one with B/op and allocs/op.
func ns(v float64) result { return result{NsOp: v} }

func withAllocs(v float64, allocs int64) result { return result{NsOp: v, AllocsOp: &allocs} }

func withMem(v float64, bytes, allocs int64) result {
	return result{NsOp: v, BytesOp: &bytes, AllocsOp: &allocs}
}

func TestParseBenchKeepsMinimumAcrossRepeats(t *testing.T) {
	repeated := "BenchmarkX \t 1 \t 500 ns/op\nBenchmarkX \t 1 \t 300 ns/op\nBenchmarkX \t 1 \t 400 ns/op\n"
	got, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"].NsOp != 300 {
		t.Fatalf("BenchmarkX = %v, want the minimum 300", got["BenchmarkX"].NsOp)
	}
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{
		"BenchmarkFlowEpoch":                           ns(659820),
		"BenchmarkGreedyPhysical64":                    ns(519689),
		"BenchmarkSlotStateVsNaive/grid64/incremental": ns(435.6),
		// A -benchmem line: the trailing columns must not disturb the
		// ns/op parse, and B/op and allocs/op are recorded.
		"BenchmarkFDDRun64": withMem(14508091, 207450, 1664),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}

// TestParseBenchAllocs: B/op and allocs/op keep their own minimum across
// repeats, independent of which repeat had the fastest ns/op.
func TestParseBenchAllocs(t *testing.T) {
	repeated := "BenchmarkX-2 \t 1 \t 500 ns/op \t 96 B/op \t 8 allocs/op\n" +
		"BenchmarkX-2 \t 1 \t 300 ns/op \t 112 B/op \t 8 allocs/op\n" +
		"BenchmarkX-2 \t 1 \t 400 ns/op \t 104 B/op \t 7 allocs/op\n"
	got, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if want := withMem(300, 96, 7); !reflect.DeepEqual(got["BenchmarkX"], want) {
		t.Fatalf("BenchmarkX = %+v, want ns 300, B/op 96 and allocs 7", got["BenchmarkX"])
	}
}

func TestBaselineJSONRoundTrip(t *testing.T) {
	want := map[string]result{"BenchmarkA": withAllocs(100, 12), "BenchmarkB": ns(5), "BenchmarkC": withMem(7, 4096, 3)}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip gave %v, want %v", got, want)
	}
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base := map[string]result{"BenchmarkA": ns(100), "BenchmarkB": ns(1000)}
	// B injected with a 50% slowdown: must fail a 30% gate.
	fresh := map[string]result{"BenchmarkA": ns(110), "BenchmarkB": ns(1500)}
	table, failures := compare(base, fresh, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkB") {
		t.Fatalf("want exactly BenchmarkB to fail, got %v", failures)
	}
	if !strings.Contains(table, "BenchmarkA") || !strings.Contains(table, "+10.0%") {
		t.Errorf("table should show the passing delta:\n%s", table)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := map[string]result{"BenchmarkA": ns(100)}
	fresh := map[string]result{"BenchmarkA": ns(129), "BenchmarkNew": ns(5)}
	table, failures := compare(base, fresh, 0.30)
	if len(failures) != 0 {
		t.Fatalf("29%% within a 30%% gate must pass, got %v", failures)
	}
	if !strings.Contains(table, "BenchmarkNew") || !strings.Contains(table, "new") {
		t.Errorf("untracked benchmarks should be listed as new:\n%s", table)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := map[string]result{"BenchmarkGone": ns(100)}
	_, failures := compare(base, map[string]result{"BenchmarkOther": ns(50)}, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("a vanished tracked benchmark must fail, got %v", failures)
	}
}

// TestCompareAllocGate: allocs/op may not rise by more than the 1% gate,
// while ns/op keeps its own coarse gate.
func TestCompareAllocGate(t *testing.T) {
	cases := []struct {
		name       string
		base, cur  result
		wantFail   bool
		wantInFail string
	}{
		{"equal passes", withAllocs(100, 1664), withAllocs(100, 1664), false, ""},
		{"fewer passes", withAllocs(100, 1664), withAllocs(100, 1500), false, ""},
		{"exactly +1% passes", withAllocs(100, 1000), withAllocs(100, 1010), false, ""},
		{"above +1% fails", withAllocs(100, 1000), withAllocs(100, 1011), true, "allocs/op 1000 -> 1011"},
		{"one more on zero fails", withAllocs(100, 0), withAllocs(100, 1), true, "allocs/op 0 -> 1"},
		{"rise fails even when faster", withAllocs(100, 449), withAllocs(50, 460), true, "allocs/op 449 -> 460"},
		{"lost -benchmem column fails", withAllocs(100, 449), ns(100), true, "-benchmem"},
		{"baseline without allocs is not gated", ns(100), withAllocs(100, 1<<20), false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table, failures := compare(map[string]result{"BenchmarkA": tc.base},
				map[string]result{"BenchmarkA": tc.cur}, 0.30)
			if got := len(failures) > 0; got != tc.wantFail {
				t.Fatalf("failures = %v, want fail=%v\n%s", failures, tc.wantFail, table)
			}
			if tc.wantFail && !strings.Contains(failures[0], tc.wantInFail) {
				t.Errorf("failure %q does not mention %q", failures[0], tc.wantInFail)
			}
		})
	}
}

// TestCompareBytesGate: B/op may not rise by more than the 3% gate. A 5%
// rise injected into one of two benchmarks fails that one alone; equal
// input passes.
func TestCompareBytesGate(t *testing.T) {
	base := map[string]result{
		"BenchmarkA": withMem(100, 2939664, 5206),
		"BenchmarkB": withMem(100, 328877, 518),
	}
	if table, failures := compare(base, base, 0.30); len(failures) != 0 {
		t.Fatalf("equal input must pass, got %v\n%s", failures, table)
	}
	fresh := map[string]result{
		"BenchmarkA": withMem(100, 2939664, 5206),
		"BenchmarkB": withMem(100, 328877*105/100, 518),
	}
	table, failures := compare(base, fresh, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkB (B/op 328877 -> 345320") {
		t.Fatalf("want exactly BenchmarkB to fail on B/op, got %v\n%s", failures, table)
	}
	cases := []struct {
		name       string
		base, cur  result
		wantFail   bool
		wantInFail string
	}{
		{"fewer passes", withMem(100, 1000, 5), withMem(100, 900, 5), false, ""},
		{"exactly +3% passes", withMem(100, 1000, 5), withMem(100, 1030, 5), false, ""},
		{"above +3% fails", withMem(100, 1000, 5), withMem(100, 1031, 5), true, "B/op 1000 -> 1031"},
		{"rise fails even with fewer allocs", withMem(100, 1000, 5), withMem(100, 1100, 4), true, "B/op 1000 -> 1100"},
		{"lost B/op column fails", withMem(100, 1000, 5), withAllocs(100, 5), true, "no B/op"},
		{"baseline without B/op is not gated", withAllocs(100, 5), withMem(100, 1<<20, 5), false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table, failures := compare(map[string]result{"BenchmarkA": tc.base},
				map[string]result{"BenchmarkA": tc.cur}, 0.30)
			if got := len(failures) > 0; got != tc.wantFail {
				t.Fatalf("failures = %v, want fail=%v\n%s", failures, tc.wantFail, table)
			}
			if tc.wantFail && !strings.Contains(failures[0], tc.wantInFail) {
				t.Errorf("failure %q does not mention %q", failures[0], tc.wantInFail)
			}
		})
	}
}
