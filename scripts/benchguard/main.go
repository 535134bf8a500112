// Command benchguard turns `go test -bench` output into a committed JSON
// baseline and guards CI against performance regressions.
//
// It reads benchmark output on stdin (or -in), extracts ns/op and, from
// -benchmem runs, allocs/op per benchmark, and writes them as JSON (-out).
// With -baseline it compares the fresh numbers against the committed file,
// prints a Markdown delta table (also appended to -summary, e.g.
// $GITHUB_STEP_SUMMARY), and exits non-zero when any baseline benchmark
// disappeared, regressed by more than -max-regress in ns/op, or rose by
// more than maxAllocRegress in allocs/op.
//
// Typical CI usage (scripts/bench_sweep.sh runs the tracked sweep a few
// times; benchguard keeps each benchmark's minimum, which tames
// single-iteration noise):
//
//	scripts/bench_sweep.sh 3 | go run ./scripts/benchguard -out BENCH_PR.json \
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

// allocsField matches the allocs/op column -benchmem appends.
var allocsField = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// maxAllocRegress is the largest allowed fractional allocs/op rise.
// Allocation counts are deterministic at -benchtime 1x, up to rare runtime
// noise that the minimum over repeated sweeps removes, so this gate is tight
// where the timing gate is a coarse tripwire.
const maxAllocRegress = 0.01

// result is one benchmark's numbers. AllocsOp is nil when the input carried
// no allocs/op column for it (a run without -benchmem).
type result struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp *int64  `json:"allocs_op,omitempty"`
}

func parseBench(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
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
		// keep the minimum, the least-disturbed measurement, of each number.
		cur, seen := out[m[1]]
		if !seen || ns < cur.NsOp {
			cur.NsOp = ns
		}
		if a := allocsField.FindStringSubmatch(sc.Text()); a != nil {
			allocs, err := strconv.ParseInt(a[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
			if cur.AllocsOp == nil || allocs < *cur.AllocsOp {
				cur.AllocsOp = &allocs
			}
		}
		out[m[1]] = cur
	}
	return out, sc.Err()
}

func readJSON(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]result)
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func writeJSON(path string, results map[string]result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare renders the delta table and returns the names of benchmarks that
// vanished from the fresh results, regressed beyond maxRegress in ns/op, or
// rose beyond maxAllocRegress in allocs/op (or lost the allocs/op column the
// baseline has).
func compare(baseline, fresh map[string]result, maxRegress float64) (table string, failures []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark | baseline ns/op | current ns/op | delta | baseline allocs/op | current allocs/op | delta |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|\n")
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := fresh[name]
		if !ok {
			fmt.Fprintf(&b, "| %s | %.0f | MISSING | — | %s | MISSING | — |\n", name, base.NsOp, allocs(base.AllocsOp))
			failures = append(failures, name+" (missing from results)")
			continue
		}
		delta := (cur.NsOp - base.NsOp) / base.NsOp
		marker := ""
		if delta > maxRegress {
			marker = " ❌"
			failures = append(failures, fmt.Sprintf("%s (+%.1f%% > +%.0f%% allowed)", name, delta*100, maxRegress*100))
		}
		allocDelta := "—"
		if base.AllocsOp != nil {
			switch {
			case cur.AllocsOp == nil:
				allocDelta = "MISSING ❌"
				failures = append(failures, name+" (no allocs/op: run with -benchmem)")
			case float64(*cur.AllocsOp) > float64(*base.AllocsOp)*(1+maxAllocRegress):
				allocDelta = fmt.Sprintf("%+d ❌", *cur.AllocsOp-*base.AllocsOp)
				failures = append(failures, fmt.Sprintf("%s (allocs/op %d -> %d, more than +%g%% allowed)",
					name, *base.AllocsOp, *cur.AllocsOp, maxAllocRegress*100))
			default:
				allocDelta = fmt.Sprintf("%+d", *cur.AllocsOp-*base.AllocsOp)
			}
		}
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %+.1f%%%s | %s | %s | %s |\n",
			name, base.NsOp, cur.NsOp, delta*100, marker, allocs(base.AllocsOp), allocs(cur.AllocsOp), allocDelta)
	}
	var extras []string
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Fprintf(&b, "| %s | — | %.0f | new | — | %s | new |\n", name, fresh[name].NsOp, allocs(fresh[name].AllocsOp))
	}
	return b.String(), failures
}

// allocs renders an optional allocs/op count for the table.
func allocs(n *int64) string {
	if n == nil {
		return "—"
	}
	return strconv.FormatInt(*n, 10)
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
	fmt.Printf("all %d tracked benchmarks within +%.0f%% ns/op and +%g%% allocs/op of baseline\n",
		len(base), *maxRegress*100, maxAllocRegress*100)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
