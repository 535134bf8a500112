// Command benchmark measures scream end to end — scream.Run on real specs, a
// screamd session from POST to its result event, and the quick figure suite —
// and layer by layer through a separate traced pass. It checks every output
// it measures and exits non-zero when a correctness gate fails.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload fdd-grid64 --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                      # every workload, both passes
//	bash benchmark/run.sh --calibrate 5        # spreads of the end-to-end metrics
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the metric
// catalogue and the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty = every workload, both passes)")
	seed := fs.Int64("seed", 1, "benchmark seed; every workload derives its inputs from it")
	secs := fs.Float64("seconds", 10, "length of one pass: scales its fixed unit counts, which take about this long")
	trace := fs.Int("trace", -1, "1 = traced per-layer pass, 0 = timed end-to-end pass (default 0 with -workload)")
	calib := fs.Int("calibrate", 0, "run the timed pass 2N times, each in its own process, and print each end-to-end metric's spreads")
	spans := fs.String("spans", "", "write the traced pass's spans to this file as JSONL")
	dir := fs.String("workloads", "", "directory of workload spec files (default benchmark/workloads)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specDir, err := workloadDir(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		selected = []workload{w}
	}
	b := bench{dir: specDir, plan: fullPlan(*secs)}
	var spanFile *os.File
	if *spans != "" {
		if spanFile, err = os.Create(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer spanFile.Close() // error paths; the success path checks Close below
		b.spans = spanFile
	}

	if *calib > 0 {
		return calibrate(stdout, selected, calibration{seed: *seed, n: *calib, seconds: *secs, dir: specDir})
	}
	passes := []bool{false, true}
	if *trace >= 0 || *name != "" {
		passes = []bool{*trace == 1}
	}
	var reports []*report
	for _, w := range selected {
		for _, traced := range passes {
			r := b.pass(w, *seed, traced)
			r.writeHuman(stdout)
			reports = append(reports, r)
		}
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: write spans:", err)
			return 2
		}
	}
	if err := writeJSON(stdout, reports, len(reports) > 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	for _, r := range reports {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// bench holds what every pass shares.
type bench struct {
	dir   string
	plan  plan
	spans io.Writer
}

// pass runs one workload's timed or traced pass.
func (b bench) pass(w workload, seed int64, traced bool) *report {
	seeds := seedSet(seed, b.plan.inputs(w))
	var (
		r   *report
		rec *recorder
	)
	switch w.kind {
	case figureRun:
		if traced {
			r, rec = figuresTraced(w, b.plan)
		} else {
			r = figuresTimed(w, seeds, b.plan)
		}
	default:
		specs, err := specsFor(b.dir, w, seeds)
		if err != nil {
			r = newReport(w.name, traced)
			r.attempted++
			r.check(err, "load")
			return r
		}
		switch {
		case w.kind == serveRun && traced:
			r, rec = serveTraced(w, specs, b.plan)
		case w.kind == serveRun:
			r = serveTimed(w, specs, b.plan)
		case traced:
			r, rec = flowTraced(w, specs, b.plan)
		default:
			r = flowTimed(w, specs, b.plan)
		}
	}
	if rec != nil && b.spans != nil {
		if err := rec.writeJSONL(b.spans); err != nil {
			r.fail("write spans: %v", err)
		}
	}
	return r
}

// calibration is what --calibrate varies and keeps.
type calibration struct {
	seed    int64
	n       int
	seconds float64
	dir     string
}

// calibrate runs each workload's timed pass 2n times, each in a process of
// its own: n times with the same seed, which measures run-to-run noise, and
// n times with seeds seed ... seed+n-1, which adds the change of inputs. The
// two kinds alternate, so drift in the host's load reaches both. It prints
// every end-to-end metric's median and spreads, and the bound they support.
func calibrate(w io.Writer, selected []workload, c calibration) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "%-18s %-15s %12s %9s %9s %9s %9s %7s\n", "workload", "metric",
		"median", "same-iqr", "same-rng", "seeds-iqr", "seeds-rng", "bound")
	for _, wl := range selected {
		same, seeds := map[string][]float64{}, map[string][]float64{}
		for k := 0; k < c.n; k++ {
			for _, run := range []struct {
				seed int64
				into map[string][]float64
			}{{c.seed, same}, {c.seed + int64(k), seeds}} {
				m, err := runChild(exe, wl.name, run.seed, c)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", wl.name, run.seed, err)
					return 1
				}
				for _, d := range endToEnd {
					run.into[d.name] = append(run.into[d.name], m[d.name].Value)
				}
			}
		}
		for _, d := range endToEnd {
			all := append(append([]float64(nil), same[d.name]...), seeds[d.name]...)
			sIQR, sRng := spreads(same[d.name])
			vIQR, vRng := spreads(seeds[d.name])
			fmt.Fprintf(w, "%-18s %-15s %12.6g %9.4f %9.4f %9.4f %9.4f %7.3f\n", wl.name, d.name,
				median(all), sIQR, sRng, vIQR, vRng, suggestBound(d, sRng, vRng))
		}
	}
	return 0
}

// runChild runs one timed pass in a new process and returns its metrics.
func runChild(exe, name string, seed int64, c calibration) (map[string]jsonMetric, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--trace", "0", "--workloads", c.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d units failed", res.Failed, res.Attempted)
	}
	return res.Metrics, nil
}

// spreads returns the quartile distance and the range of xs, each over
// their median.
func spreads(xs []float64) (iqr, rng float64) {
	q1, q3 := quartiles(xs)
	lo, hi := minMax(xs)
	med := median(append([]float64(nil), xs...))
	return ratio(q3-q1, med), ratio(hi-lo, med)
}

// suggestBound derives a metric's regression bound: 1.5 x the larger range
// of the two kinds, so that neither run-to-run noise nor a change of seed
// reaches it, but at least 0.10 for wall times, 0.02 for goodput and 0.01
// for allocation counts and the set-up heap, and at most 0.25.
func suggestBound(m metricDef, sameRng, seedsRng float64) float64 {
	floor := 0.01
	switch {
	case m.unit == "s":
		floor = 0.10
	case m.name == "goodput_pps":
		floor = 0.02
	}
	return min(0.25, max(floor, 1.5*max(sameRng, seedsRng)))
}

func minMax(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}
