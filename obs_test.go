package scream

import (
	"bytes"
	"context"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scream/internal/tracecheck"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// obsFlowSpec is the pinned scenario shared by the conservation and
// golden-trace tests, run on flowTestMesh: FDD (so the analytic/measured
// protocol cross-check exercises real SCREAMs and handshakes), bounded
// queues so drops occur, CBR arrivals for an arrival count independent of
// RNG draws, overloaded at 1.5x the static capacity to exercise the queue
// cap.
func obsFlowSpec() ScenarioSpec {
	return ScenarioSpec{
		Topology:       TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "cbr", Load: 1.5},
		Scheduler:      "fdd",
		HorizonSec:     0.3,
		Seed:           7,
		MaxQueue:       8,
		MaxService:     8,
		FramesPerEpoch: 8,
	}
}

// runObs runs spec on the mesh m with the given hooks.
func runObs(t *testing.T, m *Mesh, spec ScenarioSpec, o RunOptions) *FlowResult {
	t.Helper()
	o.Mesh = m
	res, err := RunWith(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func counter(t *testing.T, r *ObsRegistry, name string) int64 {
	t.Helper()
	v, ok := r.TakeSnapshot().Counters[name]
	if !ok {
		t.Fatalf("counter %q not registered", name)
	}
	return v
}

// TestObsConservation pins the packet-conservation identity against a live
// metrics snapshot: every packet an arrival process generated is either
// delivered, dropped at a full queue, or still queued at the horizon. All
// quantities are exact int64 event counts, so the assertions are equalities,
// not tolerances — any instrumentation drift (a counter bumped twice, a path
// not counted) breaks the identity immediately.
func TestObsConservation(t *testing.T) {
	m := flowTestMesh(t)
	reg := NewObsRegistry()
	res := runObs(t, m, obsFlowSpec(), RunOptions{Metrics: reg})

	offered := counter(t, reg, "scream_flow_offered_total")
	delivered := counter(t, reg, "scream_flow_delivered_total")
	dropped := counter(t, reg, `scream_flow_dropped_total{reason="queue_full"}`)
	if offered == 0 || delivered == 0 || dropped == 0 {
		t.Fatalf("scenario must exercise all flows: offered=%d delivered=%d dropped=%d", offered, delivered, dropped)
	}

	// Metrics must agree exactly with the run's own accounting...
	if offered != int64(res.Offered) || delivered != int64(res.Delivered) || dropped != int64(res.Dropped) {
		t.Fatalf("metrics diverge from Result: offered %d/%d delivered %d/%d dropped %d/%d",
			offered, res.Offered, delivered, res.Delivered, dropped, res.Dropped)
	}
	// ...and packets must be conserved.
	if offered != delivered+dropped+int64(res.FinalBacklog) {
		t.Fatalf("conservation violated: offered %d != delivered %d + dropped %d + queued %d",
			offered, delivered, dropped, res.FinalBacklog)
	}

	// Backlog gauge was last sampled at the final epoch boundary.
	if v, ok := reg.TakeSnapshot().Gauges["scream_flow_backlog_packets"]; !ok || v != int64(res.FinalBacklog) {
		t.Fatalf("backlog gauge %d (ok=%v), want %d", v, ok, res.FinalBacklog)
	}
}

// TestObsTimingCrossCheck pins the measured-vs-analytic control-cost
// identity of the distributed protocol: the backend's elapsed simulated
// time must equal exactly what core.Timing charges for the SCREAMs and
// handshake slots it executed, and the backend-measured SCREAM count must
// equal the protocol layer's analytic accounting. This is the end-to-end
// check that the simulator bills control overhead at precisely the paper's
// cost model — measured in ticks, asserted with ==.
func TestObsTimingCrossCheck(t *testing.T) {
	m := flowTestMesh(t)
	reg := NewObsRegistry()
	runObs(t, m, obsFlowSpec(), RunOptions{Metrics: reg})

	screamsMeasured := counter(t, reg, "scream_core_screams_measured_total")
	screamsAnalytic := counter(t, reg, "scream_core_screams_total")
	handshakes := counter(t, reg, "scream_core_handshake_slots_measured_total")
	execTicks := counter(t, reg, "scream_core_exec_ticks_total")
	k, ok := reg.TakeSnapshot().Gauges["scream_core_scream_length_slots"]
	if !ok || k <= 0 {
		t.Fatalf("SCREAM length gauge missing or non-positive: %d (ok=%v)", k, ok)
	}
	if screamsMeasured == 0 || handshakes == 0 {
		t.Fatalf("scenario ran no protocol primitives: screams=%d handshakes=%d", screamsMeasured, handshakes)
	}
	if screamsMeasured != screamsAnalytic {
		t.Fatalf("backend executed %d SCREAMs, protocol layer charged %d", screamsMeasured, screamsAnalytic)
	}

	tm := DefaultTiming()
	want := screamsMeasured*k*int64(tm.ScreamSlot()) + handshakes*int64(tm.HandshakeSlot())
	if execTicks != want {
		t.Fatalf("exec ticks %d != %d SCREAMs x K=%d x %d + %d handshakes x %d = %d",
			execTicks, screamsMeasured, k, int64(tm.ScreamSlot()), handshakes, int64(tm.HandshakeSlot()), want)
	}
}

// TestObsDisabledIdenticalResults is the zero-interference guarantee: the
// same scenario with and without a registry attached must produce an
// identical Result — metrics are write-only and can never feed back.
func TestObsDisabledIdenticalResults(t *testing.T) {
	m := flowTestMesh(t)
	base := runObs(t, m, obsFlowSpec(), RunOptions{})
	var buf bytes.Buffer
	instrumented := runObs(t, m, obsFlowSpec(), RunOptions{Metrics: NewObsRegistry(), Trace: NewObsTracer(&buf)})
	if *base != *instrumented {
		t.Fatalf("observability changed the result:\nbase:         %+v\ninstrumented: %+v", *base, *instrumented)
	}
}

// TestObsTraceGolden pins the schema-v2 JSONL span trace of the pinned
// scenario byte-for-byte: same seed, single-threaded driver, simulated
// timestamps — the trace must be fully deterministic (wall-clock sampling
// stays off), and the golden files document the schema in the repository.
// Besides the FDD scenario, PDD (p = 0.5) pins the randomized variant's
// handshake sequence on one channel, and FDD on two channels pins the
// per-channel phases and the radio gate of the same protocol loop.
// Regenerate with: go test -run TestObsTraceGolden -update
func TestObsTraceGolden(t *testing.T) {
	m := flowTestMesh(t)
	for _, tc := range []struct {
		golden string
		edit   func(*ScenarioSpec)
	}{
		{"flow_trace_v2.jsonl", func(*ScenarioSpec) {}},
		{"flow_trace_v2_pdd.jsonl", func(s *ScenarioSpec) { s.Scheduler, s.P = "pdd", 0.5 }},
		{"flow_trace_v2_fdd_c2.jsonl", func(s *ScenarioSpec) { s.Channels = 2 }},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			emit := func() []byte {
				var buf bytes.Buffer
				spec := obsFlowSpec()
				spec.HorizonSec = 0.06 // a few epochs; keeps the golden file small
				tc.edit(&spec)
				tr := NewObsTracer(&buf)
				runObs(t, m, spec, RunOptions{Trace: tr})
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			got := emit()
			if again := emit(); !bytes.Equal(got, again) {
				t.Fatal("identical runs produced different traces")
			}
			events, err := tracecheck.Parse(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			if vs := tracecheck.Validate(events); len(vs) > 0 {
				t.Fatalf("golden scenario trace violates invariants: %v", vs)
			}

			golden := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trace diverges from %s (%d vs %d bytes); run with -update after intended schema changes",
					golden, len(got), len(want))
			}
		})
	}
}

// goldenSpec is the checked-in golden scenario (testdata/scenario_grid.json,
// greedy on a 4×4 grid) with the given scheduler.
func goldenSpec(t *testing.T, scheduler string) ScenarioSpec {
	t.Helper()
	spec, err := LoadScenario("testdata/scenario_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scheduler = scheduler
	return spec
}

// layerCounters returns r's counters of the simulation layers whose names
// start with one of prefixes.
func layerCounters(r *ObsRegistry, prefixes ...string) map[string]int64 {
	out := map[string]int64{}
	for name, v := range r.TakeSnapshot().Counters {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				out[name] = v
			}
		}
	}
	return out
}

// TestRunMetricsPerRun runs a greedy and an FDD session of the golden
// scenario concurrently through RunWith, each with its own registry. Every
// layer publishes into the registry of the run it serves, so each registry
// must hold exactly a solo run's phys, sched, core and flow counters: the
// greedy run's schedule builds with their slot-engine probes, and the FDD
// run's protocol counts with its handshake slot's tentative adds and
// rollbacks, and neither the other's. The capacity frame that sets the
// arrival rate is the mesh's build and lands in neither.
func TestRunMetricsPerRun(t *testing.T) {
	layers := []string{"scream_phys_", "scream_sched_", "scream_core_", "scream_flow_"}
	specs := []ScenarioSpec{goldenSpec(t, "greedy"), goldenSpec(t, "fdd")}
	solo := make([]map[string]int64, len(specs))
	for i, spec := range specs {
		reg := NewObsRegistry()
		if _, err := RunWith(context.Background(), spec, RunOptions{Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		solo[i] = layerCounters(reg, layers...)
	}
	greedy, fdd := solo[0], solo[1]
	if greedy["scream_sched_builds_total"] == 0 || greedy["scream_phys_canadd_total"] == 0 || greedy["scream_phys_rollbacks_total"] != 0 {
		t.Fatalf("greedy run's registry: %v", greedy)
	}
	if fdd["scream_phys_rollbacks_total"] == 0 || fdd["scream_phys_slot_adds_total"] == 0 || fdd["scream_sched_builds_total"] != 0 {
		t.Fatalf("FDD run's registry: %v", fdd)
	}
	for round := 0; round < 4; round++ {
		regs := make([]*ObsRegistry, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			regs[i] = NewObsRegistry()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = RunWith(context.Background(), spec, RunOptions{Metrics: regs[i]})
			}()
		}
		wg.Wait()
		for i, spec := range specs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got := layerCounters(regs[i], layers...); !maps.Equal(got, solo[i]) {
				t.Fatalf("round %d, %s: concurrent run's counters\n%v\nwant a solo run's\n%v", round, spec.Scheduler, got, solo[i])
			}
		}
	}
}

// TestRuntimeMetricsTotals pins the process-wide schedule-build and
// slot-engine counts of the golden scenario under EnableRuntimeMetrics, for
// greedy and FDD: the run's own counts plus the mesh's capacity-frame
// build. The values were recorded when internal/phys and internal/sched
// published through process-global hooks; a registry per run must not move
// the process totals.
func TestRuntimeMetricsTotals(t *testing.T) {
	for _, tc := range []struct {
		scheduler string
		want      map[string]int64
	}{
		{"greedy", map[string]int64{
			"scream_phys_canadd_total":      1380,
			"scream_phys_slot_adds_total":   315,
			"scream_phys_rollbacks_total":   0,
			"scream_sched_builds_total":     11,
			"scream_sched_admissions_total": 315,
			"scream_sched_slots_total":      315,
		}},
		{"fdd", map[string]int64{
			"scream_phys_canadd_total":      104,
			"scream_phys_slot_adds_total":   883,
			"scream_phys_rollbacks_total":   459,
			"scream_sched_builds_total":     1,
			"scream_sched_admissions_total": 16,
			"scream_sched_slots_total":      16,
		}},
	} {
		reg := NewObsRegistry()
		EnableRuntimeMetrics(reg)
		_, err := Run(context.Background(), goldenSpec(t, tc.scheduler))
		EnableRuntimeMetrics(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := layerCounters(reg, "scream_phys_", "scream_sched_"); !maps.Equal(got, tc.want) {
			t.Errorf("%s: process totals %v, want %v", tc.scheduler, got, tc.want)
		}
	}
}
