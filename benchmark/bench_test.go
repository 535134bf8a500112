package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload once on the smallest plan, with every
// correctness gate: conservation, repeat-run equality, per-slot feasibility,
// streamed-equals-in-process, suite equality, and the traced replica's
// equality with scream.Run. The figure suite's traced pass is left out: it
// needs three suites and nothing in it is gated beyond what the timed pass
// checks.
func TestSmoke(t *testing.T) {
	b := bench{dir: "workloads", plan: smokePlan()}
	var reports []*report
	for _, w := range workloads {
		passes := []bool{false, true}
		if w.kind == figureRun {
			passes = passes[:1]
		}
		for _, traced := range passes {
			r := b.pass(w, 1, traced)
			if !r.correct() {
				t.Errorf("%s (traced=%v): %d of %d units failed: %s", w.name, traced, r.failed, r.attempted, strings.Join(r.errs, "; "))
			}
			reports = append(reports, r)
		}
	}

	var buf bytes.Buffer
	if err := writeJSON(&buf, reports[:1], false); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line keys = %v, want correct, attempted, failed, metrics", keys)
	}
}

// TestPlanCounts pins that a pass's size comes from the workload and
// -seconds alone: at 10 s every flow and serve workload runs its listed
// inputs and the figures their listed suites, and -seconds scales both.
func TestPlanCounts(t *testing.T) {
	for _, w := range workloads {
		full, half := fullPlan(10), fullPlan(5)
		switch w.kind {
		case figureRun:
			if got := full.suites(w); got != w.repeats {
				t.Errorf("%s: %d suites at 10 s, want %d", w.name, got, w.repeats)
			}
		default:
			if got := full.inputs(w); got != w.inputs {
				t.Errorf("%s: %d inputs at 10 s, want %d", w.name, got, w.inputs)
			}
			if got, want := half.inputs(w), max(half.probes, (w.inputs+1)/2); got != want {
				t.Errorf("%s: %d inputs at 5 s, want %d", w.name, got, want)
			}
		}
	}
}

// TestReplicaRejectsUncoveredSpecs pins that a spec feature the replica does
// not reproduce is an error rather than a silent fallback.
func TestReplicaRejectsUncoveredSpecs(t *testing.T) {
	specs, err := specsFor("workloads", workloads[0], seedSet(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.Scheduler, spec.P = "pdd", 0.5
	if _, err := newReplica().run(spec); err == nil {
		t.Error("replica ran a pdd spec")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the program's
// metric and workload names in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, program has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

// TestQuartilesMatchPython pins the calibration spread to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
