// Command benchguard turns `go test -bench` output into a committed JSON
// baseline and guards CI against performance regressions.
//
// It reads benchmark output on stdin (or -in), extracts ns/op per benchmark,
// and writes them as JSON (-out). With -baseline it compares the fresh
// numbers against the committed file, prints a Markdown delta table (also
// appended to -summary, e.g. $GITHUB_STEP_SUMMARY), and exits non-zero when
// any baseline benchmark regressed by more than -max-regress or disappeared.
//
// Typical CI usage (the sweep is run a few times; benchguard keeps each
// benchmark's minimum, which tames single-iteration noise):
//
//	for i in 1 2 3; do \
//	    go test -run '^$' -bench 'GreedyPhysical|FDDRun|PDDRun|FlowEpoch|SlotState' \
//	        -benchtime 1x -benchmem ./...; done | \
//	    go run ./scripts/benchguard -out BENCH_PR.json \
//	    -baseline BENCH_BASELINE.json -max-regress 0.30 -summary "$GITHUB_STEP_SUMMARY"
//
// Refreshing the committed baseline is the same command with
// -out BENCH_BASELINE.json and no -baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g. "BenchmarkGreedyPhysical64-8   123   456789 ns/op ..."
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		// The input may hold several repetitions of the suite (CI runs the
		// -benchtime 1x sweep a few times to tame single-iteration noise);
		// keep the minimum, the least-disturbed measurement.
		if cur, ok := out[m[1]]; !ok || ns < cur {
			out[m[1]] = ns
		}
	}
	return out, sc.Err()
}

func readJSON(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func writeJSON(path string, results map[string]float64) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare renders the delta table and returns the names of benchmarks that
// regressed beyond maxRegress (or vanished from the fresh results).
func compare(baseline, fresh map[string]float64, maxRegress float64) (table string, failures []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark | baseline ns/op | current ns/op | delta |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|\n")
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := fresh[name]
		if !ok {
			fmt.Fprintf(&b, "| %s | %.0f | MISSING | — |\n", name, base)
			failures = append(failures, name+" (missing from results)")
			continue
		}
		delta := (cur - base) / base
		marker := ""
		if delta > maxRegress {
			marker = " ❌"
			failures = append(failures, fmt.Sprintf("%s (+%.1f%% > +%.0f%% allowed)", name, delta*100, maxRegress*100))
		}
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %+.1f%%%s |\n", name, base, cur, delta*100, marker)
	}
	var extras []string
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Fprintf(&b, "| %s | — | %.0f | new |\n", name, fresh[name])
	}
	return b.String(), failures
}

func run() error {
	var (
		in         = flag.String("in", "", "read benchmark output from this file instead of stdin")
		out        = flag.String("out", "", "write parsed results as JSON to this file")
		baseline   = flag.String("baseline", "", "compare against this committed JSON baseline")
		maxRegress = flag.Float64("max-regress", 0.30, "maximum allowed fractional ns/op regression per benchmark")
		summary    = flag.String("summary", "", "append the Markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	fresh, err := parseBench(src)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("no benchmark results found in input")
	}
	if *out != "" {
		if err := writeJSON(*out, fresh); err != nil {
			return err
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(fresh), *out)
	}
	if *baseline == "" {
		return nil
	}
	base, err := readJSON(*baseline)
	if err != nil {
		return err
	}
	table, failures := compare(base, fresh, *maxRegress)
	fmt.Print(table)
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(f, "## Benchmark regression check\n\n%s\n", table); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression: %s", strings.Join(failures, "; "))
	}
	fmt.Printf("all %d tracked benchmarks within +%.0f%% of baseline\n", len(base), *maxRegress*100)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
