package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// report collects one pass's metrics and gate outcomes.
type report struct {
	workload string
	traced   bool
	values   map[string]float64
	// attempted counts units (runs, sessions, suites) the pass started;
	// failed those that errored, were refused or failed a correctness gate.
	attempted, failed int
	errs              []string
	// samples is the number of units behind the pass's time metrics.
	samples int
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// fail records a failed unit.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check records a failed unit when err is non-nil and reports whether it
// was nil.
func (r *report) check(err error, what string) bool {
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// catalogue returns the metrics this pass must report.
func (r *report) catalogue() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// writeHuman prints one line per metric, the sample count, the error rate
// and any gate failures.
func (r *report) writeHuman(w io.Writer) {
	pass := "timed"
	if r.traced {
		pass = "traced"
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "%s %s: GATE FAILED: %s\n", r.workload, pass, e)
	}
	for _, m := range r.catalogue() {
		fmt.Fprintf(w, "%-18s %-28s %14.6g %s\n", r.workload, m.name, r.values[m.name], m.unit)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-18s %-28s %14.6g ratio (%d of %d units, n=%d timed)\n",
		r.workload, "error_rate", rate, r.failed, r.attempted, r.samples)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeJSON prints the result line. prefix namespaces the metric names when
// several workloads share one line.
func writeJSON(w io.Writer, reports []*report, prefix bool) error {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reports {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, m := range r.catalogue() {
			v, ok := r.values[m.name]
			if !ok && !r.traced {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, m.name)
			}
			name := m.name
			if prefix {
				name = r.workload + "/" + name
			}
			out.Metrics[name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// calibration spreads match the ones computed from a set of runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
