package scream

// The benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (there are no numbered tables; the evaluation is Figures 4-9)
// plus one per ablation from DESIGN.md. Each benchmark regenerates its
// figure's series in Quick mode and reports the headline numbers as custom
// metrics, so `go test -bench=.` both exercises the full pipeline and
// reproduces the paper's qualitative results. Use cmd/figgen for the
// full-size sweeps.

import (
	"context"
	"io"
	"strings"
	"testing"

	"scream/internal/sched"
	"scream/internal/stats"
)

var benchOpts = ExperimentOptions{Quick: true, Seeds: 2}

// metricName turns a series name into a ReportMetric-safe unit string
// (no whitespace allowed).
func metricName(name, suffix string) string {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '(', ')', '=', '%', '/':
			return '_'
		}
		return r
	}, name)
	return clean + "_" + suffix
}

func reportSeries(b *testing.B, fig *Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			continue
		}
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		b.ReportMetric(first.Y, metricName(s.Name, "first"))
		b.ReportMetric(last.Y, metricName(s.Name, "last"))
	}
}

// BenchmarkFig4MoteDetectionError regenerates Figure 4: % error in SCREAM
// detection vs SCREAM size on the Mica2 mote experiment.
func BenchmarkFig4MoteDetectionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := Fig4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig5RSSIMovingAverage regenerates Figure 5: the monitor's RSSI
// moving-average trace for 24-byte screams.
func BenchmarkFig5RSSIMovingAverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := Fig5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var ma *stats.Series
			for _, s := range fig.Series {
				if s.Name == "RSSI MA" {
					ma = s
				}
			}
			above := 0
			for _, p := range ma.Points {
				if p.Y > -60 {
					above++
				}
			}
			b.ReportMetric(float64(len(ma.Points)), "trace_points")
			b.ReportMetric(float64(above), "points_above_threshold")
		}
	}
}

// BenchmarkFig6GridImprovement regenerates Figure 6: schedule-length
// improvement over linear vs density on the planned grid (Centralized, FDD,
// PDD p in {0.2, 0.6, 0.8}).
func BenchmarkFig6GridImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := Fig6(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig7UniformImprovement regenerates Figure 7: the unplanned
// uniform deployment with heterogeneous power (Centralized, FDD, PDD 0.8).
func BenchmarkFig7UniformImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := Fig7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig8ExecutionTime regenerates Figure 8: protocol execution time
// vs SCREAM size and vs interference-diameter bound K (FDD and PDD).
func BenchmarkFig8ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := Fig8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFig9ClockSkew regenerates Figure 9: execution time vs clock-skew
// bound (FDD, PDD p=0.2).
func BenchmarkFig9ClockSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := Fig9(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkAblationPDDProbability sweeps PDD's activation probability.
func BenchmarkAblationPDDProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationPDDProbability(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkAblationGreedyOrdering compares GreedyPhysical edge orderings.
func BenchmarkAblationGreedyOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationGreedyOrdering(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkAblationScreamK quantifies over-provisioning K beyond ID(G_S).
func BenchmarkAblationScreamK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationScreamK(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkAblationAckModel compares the full (data+ACK) model against the
// classic data-only physical model.
func BenchmarkAblationAckModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationAckModel(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkAblationFDDSeal measures the ASAP slot-sealing extension.
func BenchmarkAblationFDDSeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationFDDSeal(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkFigEngineParallel regenerates Figure 6 (quick) with experiment
// cells fanned across all cores by the cell-grid engine; compare against
// BenchmarkFigEngineSerial to read off the parallel speedup. The engine
// guarantees both produce identical series (see TestEngineDeterminism).
func BenchmarkFigEngineParallel(b *testing.B) {
	opts := ExperimentOptions{Quick: true, Seeds: 2, Workers: 0} // 0 = GOMAXPROCS
	for i := 0; i < b.N; i++ {
		if _, err := Fig6(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigEngineSerial is the single-worker baseline for
// BenchmarkFigEngineParallel.
func BenchmarkFigEngineSerial(b *testing.B) {
	opts := ExperimentOptions{Quick: true, Seeds: 2, Workers: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Fig6(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigChannelsQuick regenerates the quick channels figure on one
// worker. Its flow runs at 4x the static capacity carry most of its bytes,
// and the one worker's flow.Runner sees every cell in the same order each
// time, so B/op and allocs/op repeat exactly: they track what reusing the
// data plane across runs saves.
func BenchmarkFigChannelsQuick(b *testing.B) {
	opts := ExperimentOptions{Quick: true, Workers: 1}
	for i := 0; i < b.N; i++ {
		if _, err := FigChannels(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowEpoch exercises the flow-level dynamic traffic simulator: a
// 16-node mesh at 1.0x offered load, greedy epoch re-scheduling with an
// 8-packet quota and 8-frame schedule reuse, 200 ms of simulated time per
// iteration. Reported metrics give the per-second simulation throughput of
// the epoch driver (epochs, delivered packets).
func BenchmarkFlowEpoch(b *testing.B) {
	m, spec := benchFlowSpec(b, "greedy")
	var last *FlowResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i)
		res, err := RunWith(context.Background(), spec, RunOptions{Mesh: m})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Epochs), "epochs")
	b.ReportMetric(float64(last.Delivered), "delivered_pkts")
	b.ReportMetric(last.GoodputPps, "goodput_pps")
}

// BenchmarkRunGoldenSpec is the library's end-to-end path: Run on the
// checked-in golden scenario (testdata/scenario_grid.json), building its mesh
// through NewMesh every iteration. Loading the spec is outside the timer.
func BenchmarkRunGoldenSpec(b *testing.B) {
	spec, err := LoadScenario("testdata/scenario_grid.json")
	if err != nil {
		b.Fatal(err)
	}
	var last *FlowResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.GoodputPps, "goodput_pps")
}

// benchFlowSpec is the flow-epoch benchmarks' 16-node mesh and scenario: CBR
// sources at 1.0x the static capacity, given as an absolute rate computed
// here so the timed loop does not rebuild FlowFrameTime.
func benchFlowSpec(b *testing.B, scheduler string) (*Mesh, ScenarioSpec) {
	b.Helper()
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := m.FlowFrameTime(Timing{})
	if err != nil {
		b.Fatal(err)
	}
	return m, ScenarioSpec{
		Topology:       TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "cbr", RatePps: 1.0 / frame.Seconds()},
		Scheduler:      scheduler,
		HorizonSec:     0.2,
		MaxService:     8,
		FramesPerEpoch: 8,
	}
}

// BenchmarkFlowEpochSaturated is the flow data plane under heavy traffic: a
// 64-node, 2-channel, 2-radio mesh offered Poisson traffic at 4x the static
// capacity, greedy re-scheduling with an 8-packet quota and 64-frame
// schedule reuse, 2 s of simulated time per iteration. Arrivals, queues and
// the delay summary, not schedule builds, carry most of its cost.
func BenchmarkFlowEpochSaturated(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30, Radio: &RadioSpec{NumRadios: 2}}, 1)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := m.FlowFrameTime(Timing{})
	if err != nil {
		b.Fatal(err)
	}
	spec := ScenarioSpec{
		Topology: TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30, Radio: &RadioSpec{NumRadios: 2}},
		// Load 4, as the absolute rate RunWith would derive from it, so the
		// timed loop does not rebuild FlowFrameTime.
		Traffic:        TrafficSpec{Kind: "poisson", RatePps: 4 / frame.Seconds()},
		Scheduler:      "greedy",
		Channels:       2,
		HorizonSec:     2,
		MaxService:     8,
		FramesPerEpoch: 64,
	}
	var last *FlowResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i)
		res, err := RunWith(context.Background(), spec, RunOptions{Mesh: m})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Epochs), "epochs")
	b.ReportMetric(float64(last.Delivered), "delivered_pkts")
	b.ReportMetric(last.GoodputPps, "goodput_pps")
}

// benchFlowEpochObs is BenchmarkFlowEpoch's scenario with observability in a
// chosen state; the Enabled/Disabled pair quantifies the overhead of the
// metrics substrate on the epoch driver's hot path. Enabled carries the full
// load — a live registry in every layer plus a v2 span tracer emitting to a
// discarded stream. Disabled must stay within the benchguard gate of
// BenchmarkFlowEpoch itself — the nil-check branches are the entire cost of
// shipping the instrumentation.
func benchFlowEpochObs(b *testing.B, enabled bool) {
	m, spec := benchFlowSpec(b, "greedy")
	o := RunOptions{Mesh: m}
	if enabled {
		reg := NewObsRegistry()
		o.Metrics = reg
		o.Trace = NewObsTracer(io.Discard)
		EnableRuntimeMetrics(reg)
		defer EnableRuntimeMetrics(nil) // detach the process globals for the other benchmarks
	}
	var last *FlowResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i)
		res, err := RunWith(context.Background(), spec, o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Epochs), "epochs")
	b.ReportMetric(float64(last.Delivered), "delivered_pkts")
}

// BenchmarkFlowEpochObsDisabled is BenchmarkFlowEpoch through the
// observability-aware code paths with no registry attached: the pure cost
// of the disabled-path nil checks.
func BenchmarkFlowEpochObsDisabled(b *testing.B) { benchFlowEpochObs(b, false) }

// BenchmarkFlowEpochObsEnabled runs the same scenario with a live registry
// wired into every layer (flow, core, sched, phys): the full collection
// cost under the heaviest instrumentation.
func BenchmarkFlowEpochObsEnabled(b *testing.B) { benchFlowEpochObs(b, true) }

// Micro-benchmarks for the primitives themselves.

func BenchmarkGreedyPhysical64(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GreedySchedule(ByHeadIDDesc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewMeshGrid256 is the set-up of the 16x16 grid the
// greedy-dense256 and greedy-spatial256 workloads run on: NewMesh builds the
// dense channel, both graphs, the gateways and the routing forest.
func BenchmarkNewMeshGrid256(b *testing.B) {
	spec := TopologySpec{Kind: "grid", Rows: 16, Cols: 16, StepMeters: 30}
	for i := 0; i < b.N; i++ {
		if _, err := NewMesh(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyPhysicalSpatial256 is one greedy schedule build on the
// 16x16 grid of the greedy-spatial256 workload, through the spatial engine:
// the admissions go through the phys.Engine interface, with exact
// near-field and bucket-capped far-field interference terms. Each op also
// builds the index, as every build on a spatial mesh does.
func BenchmarkGreedyPhysicalSpatial256(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 16, Cols: 16, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.UseEngine(InterferenceSpec{Engine: EngineSpatial}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GreedySchedule(ByHeadIDDesc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDemands64 is the deterministic non-uniform demand vector of the
// one-shot scheduler benchmarks: varied enough that the max-weight ordering
// actually re-ranks and the general (non-unit) scheduling path is exercised.
func benchDemands64(m *Mesh) []int {
	demands := make([]int, len(m.Links))
	for i := range demands {
		demands[i] = 1 + i%4
	}
	return demands
}

// BenchmarkMaxWeightSchedule64 measures one-shot queue-aware schedule
// construction (backlog x rate ordering + greedy first-fit) on the 64-node
// grid; compare against BenchmarkGreedyPhysical64 to read off the ordering
// overhead.
func BenchmarkMaxWeightSchedule64(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	demands := benchDemands64(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(sched.Builder).GreedyMaxWeight(m.Network.Channel, m.Links, demands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFanZhangSchedule64 measures one-shot approximation-scheduler
// construction (length-class partition + per-class first-fit) on the same
// grid and demands as BenchmarkMaxWeightSchedule64.
func BenchmarkFanZhangSchedule64(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	demands := benchDemands64(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(sched.Builder).ApproxFanZhang(m.Network.Channel, m.Links, demands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxWeightEpoch is BenchmarkFlowEpoch with the queue-aware
// scheduler: the epoch driver re-ranks by backlog snapshot each epoch, so
// this measures the full backlog -> ordering -> schedule loop under load.
func BenchmarkMaxWeightEpoch(b *testing.B) {
	m, spec := benchFlowSpec(b, "maxweight")
	var last *FlowResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i)
		res, err := RunWith(context.Background(), spec, RunOptions{Mesh: m})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Epochs), "epochs")
	b.ReportMetric(float64(last.Delivered), "delivered_pkts")
	b.ReportMetric(last.GoodputPps, "goodput_pps")
}

// BenchmarkSlotStateMultiChannel measures the greedy builder's one
// admission pass at two channel counts: a full GreedyPhysicalMulti schedule
// construction over the 64-node grid at 4 channels / 2 radios (one slab
// SlotState per slot and channel, with a per-slot radio row), against
// 1 channel (one SlotState per slot and no radio row, the path every
// single-channel figure runs).
func BenchmarkSlotStateMultiChannel(b *testing.B) {
	multi, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30, Radio: &RadioSpec{NumRadios: 2}}, 1)
	if err != nil {
		b.Fatal(err)
	}
	single, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chan4radio2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multi.GreedyScheduleChannels(4, ByHeadIDDesc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chan1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := single.GreedyScheduleChannels(1, ByHeadIDDesc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFDDRun64(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunFDD(ProtocolOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPDDRun64(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunPDD(0.2, ProtocolOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScreamPrimitive(b *testing.B) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30}, 1)
	if err != nil {
		b.Fatal(err)
	}
	vars := make([]bool, m.NumNodes())
	vars[0] = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Scream(vars, ProtocolOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBalancedRouting compares routing-forest tie-breaking
// strategies (extension; see DESIGN.md).
func BenchmarkAblationBalancedRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationBalancedRouting(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkAblationMoteRelays sweeps relay count in the mote experiment —
// SCREAM's collision-resilience claim as a benchmark.
func BenchmarkAblationMoteRelays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationMoteRelays(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}

// BenchmarkAblationShadowing measures scheduling quality under log-normal
// shadowing (the paper's propagation model family).
func BenchmarkAblationShadowing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := AblationShadowing(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig)
		}
	}
}
