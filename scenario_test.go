package scream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"scream/internal/dynam"
)

func testSpec() ScenarioSpec {
	return ScenarioSpec{
		Name:           "test",
		Topology:       TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "poisson", Load: 0.5},
		Scheduler:      "greedy",
		HorizonSec:     0.3,
		Seed:           7,
		FramesPerEpoch: 8,
		MaxService:     8,
	}
}

// TestScenarioGolden pins the on-disk spec format: the checked-in document
// must decode, validate and run.
func TestScenarioGolden(t *testing.T) {
	spec, err := LoadScenario("testdata/scenario_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Delivered == 0 {
		t.Fatalf("golden scenario inert: offered %d delivered %d", res.Offered, res.Delivered)
	}
}

// TestScenarioRoundTrip checks Marshal/Unmarshal is the identity, including
// the pointer-valued knobs JSON makes awkward (nil-vs-zero CS threshold).
func TestScenarioRoundTrip(t *testing.T) {
	cs := 0.0
	spec := testSpec()
	spec.Topology.Gateways = []int{0, 15}
	spec.Topology.Radio = &RadioSpec{NumRadios: 2, CSThresholdDBm: &cs}
	spec.Traffic = TrafficSpec{Kind: "zipf", Load: 1.5, ZipfS: 1.2, ZipfMax: 16}
	spec.Dynamics = &DynamicsSpec{FailRate: 0.5, MeanDowntimeSec: 0.2, Mobility: "waypoint", SpeedMps: 5}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got ScenarioSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, spec)
	}
}

// TestScenarioStrictDecode: unknown fields anywhere in the document are
// rejected — a typoed knob must not silently run the default.
func TestScenarioStrictDecode(t *testing.T) {
	cases := []string{
		`{"horizon_secs": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_meters": 30}}`,
		`{"traffic": {"kind": "poisson", "lod": 0.5}}`,
		`{"dynamics": {"failrate": 1}}`,
	}
	for _, doc := range cases {
		var spec ScenarioSpec
		if err := json.Unmarshal([]byte(doc), &spec); err == nil {
			t.Errorf("unknown field accepted: %s", doc)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*ScenarioSpec)
		want   string
	}{
		{"no topology kind", func(s *ScenarioSpec) { s.Topology.Kind = "" }, "topology.kind"},
		{"unknown topology", func(s *ScenarioSpec) { s.Topology.Kind = "torus" }, "torus"},
		{"no rows", func(s *ScenarioSpec) { s.Topology.Rows = 0 }, "rows"},
		{"no traffic kind", func(s *ScenarioSpec) { s.Traffic.Kind = "" }, "traffic.kind"},
		{"unknown traffic", func(s *ScenarioSpec) { s.Traffic.Kind = "fractal" }, "fractal"},
		{"both rates", func(s *ScenarioSpec) { s.Traffic.RatePps = 10 }, "not both"},
		{"no rate", func(s *ScenarioSpec) { s.Traffic.Load = 0 }, "load or rate_pps"},
		{"unknown scheduler", func(s *ScenarioSpec) { s.Scheduler = "astrology" }, "astrology"},
		{"pdd without p", func(s *ScenarioSpec) { s.Scheduler = "pdd" }, "pdd needs p"},
		{"no horizon", func(s *ScenarioSpec) { s.HorizonSec = 0 }, "horizon_sec"},
		{"NaN horizon", func(s *ScenarioSpec) { s.HorizonSec = math.NaN() }, "horizon_sec must be in (0, 9.223372036e+09]"},
		{"overflowing horizon", func(s *ScenarioSpec) { s.HorizonSec = 1e300 }, "horizon_sec must be in (0, 9.223372036e+09]"},
		{"negative max_queue", func(s *ScenarioSpec) { s.MaxQueue = -5 }, "max_queue must be >= 0"},
		{"negative max_service", func(s *ScenarioSpec) { s.MaxService = -2 }, "max_service must be >= 0"},
		{"negative frames_per_epoch", func(s *ScenarioSpec) { s.FramesPerEpoch = -3 }, "frames_per_epoch must be >= 0"},
		{"negative channels", func(s *ScenarioSpec) { s.Channels = -1 }, "channels must be >= 0"},
		{"multi-channel maxweight", func(s *ScenarioSpec) { s.Scheduler, s.Channels = "maxweight", 2 }, `scheduler "maxweight" is single-channel only; channels > 1 needs one of greedy, fdd, pdd, tdma`},
		{"multi-channel fanzhang", func(s *ScenarioSpec) { s.Scheduler, s.Channels = "fanzhang", 4 }, `scheduler "fanzhang" is single-channel only; channels > 1 needs one of greedy, fdd, pdd, tdma`},
		{"negative idle_wait_sec", func(s *ScenarioSpec) { s.IdleWaitSec = -1 }, "idle_wait_sec must be in [0, 9.223372036e+09]"},
		{"infinite idle_wait_sec", func(s *ScenarioSpec) { s.IdleWaitSec = math.Inf(1) }, "idle_wait_sec must be in [0,"},
		{"overflowing mean_on_sec", func(s *ScenarioSpec) { s.Traffic.MeanOnSec = 1e10 }, "traffic.mean_on_sec must be in [0,"},
		{"NaN mean_off_sec", func(s *ScenarioSpec) { s.Traffic.MeanOffSec = math.NaN() }, "traffic.mean_off_sec must be in [0,"},
		{"bad mobility", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{Mobility: "teleport"} }, "teleport"},
		{"negative fail_rate", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{FailRate: -1} }, "dynamics.fail_rate must be finite and >= 0"},
		{"infinite fail_rate", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{FailRate: math.Inf(1)} }, "dynamics.fail_rate must be finite and >= 0"},
		{"negative downtime", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{FailRate: 1, MeanDowntimeSec: -0.1} }, "dynamics.mean_downtime_sec must be in [0,"},
		{"negative speed", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{Mobility: "drift", SpeedMps: -5} }, "dynamics.speed_mps must be finite and >= 0"},
		{"negative pause", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{Mobility: "waypoint", PauseSec: -1} }, "dynamics.pause_sec must be in [0,"},
		{"overflowing move interval", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{Mobility: "drift", MoveIntervalSec: 1e300} }, "dynamics.move_interval_sec must be in [0,"},
		// Checks that need no mesh, which used to fail only inside Run.
		{"gateway past the last node", func(s *ScenarioSpec) { s.Topology.Gateways = []int{0, 999} }, "topology.gateways[1] = 999 is not a node; want 0..15"},
		{"negative gateway", func(s *ScenarioSpec) { s.Topology.Gateways = []int{-1} }, "topology.gateways[0] = -1 is not a node; want 0..15"},
		{"inverted demand range", func(s *ScenarioSpec) { s.Topology.DemandLo, s.Topology.DemandHi = 5, 3 }, "1 <= demand_lo <= demand_hi (0 selects 1 and 10), got [5, 3]"},
		{"demand_lo above the default hi", func(s *ScenarioSpec) { s.Topology.DemandLo = 20 }, "got [20, 10]"},
		{"negative demand_lo", func(s *ScenarioSpec) { s.Topology.DemandLo = -3 }, "got [-3, 10]"},
		{"zipf_s of 1", func(s *ScenarioSpec) { s.Traffic.Kind, s.Traffic.ZipfS = "zipf", 1 }, "traffic.zipf_s must be finite and > 1 (0 selects 1.5), got 1"},
		{"NaN zipf_s", func(s *ScenarioSpec) { s.Traffic.Kind, s.Traffic.ZipfS = "zipf", math.NaN() }, "traffic.zipf_s must be finite and > 1"},
		{"negative k", func(s *ScenarioSpec) { s.Scheduler, s.K = "fdd", -1 }, "k must be >= 0, got -1"},
		{"1x1 grid without gateways", func(s *ScenarioSpec) { s.Topology.Rows, s.Topology.Cols = 1, 1 }, "grid topology has 1 nodes, fewer than its 4 default gateways"},
		{"2-node uniform without gateways", func(s *ScenarioSpec) {
			s.Topology = TopologySpec{Kind: "uniform", Nodes: 2, SideMeters: 50}
		}, "uniform topology has 2 nodes, fewer than its 4 default gateways"},
		{"negative peak_factor", func(s *ScenarioSpec) { s.Traffic.Kind, s.Traffic.PeakFactor = "bursty", -1 }, "traffic.peak_factor must be finite and >= 0, got -1"},
		// Power and radio fields, which used to fail only inside Run or to
		// run on infinite or silently replaced values.
		{"beta_db without the other physics", func(s *ScenarioSpec) { s.Topology.Radio = &RadioSpec{BetaDB: 12} }, "topology.radio.path_loss_exponent must be finite and > 0 when any physics field is set, got 0"},
		{"underflowing noise_dbm", func(s *ScenarioSpec) { s.Topology.Radio = &RadioSpec{NoiseDBm: -1e308} }, "topology.radio.noise_dbm must convert to a finite linear value > 0, got -1e+308"},
		{"NaN noise_dbm", func(s *ScenarioSpec) { s.Topology.Radio = &RadioSpec{PathLossExponent: 3, NoiseDBm: math.NaN()} }, "topology.radio.noise_dbm must convert to a finite linear value > 0, got NaN"},
		{"underflowing ref_loss_db", func(s *ScenarioSpec) { s.Topology.Radio = &RadioSpec{RefLossDB: -1e308} }, "topology.radio.ref_loss_db must convert to a finite linear value > 0, got -1e+308"},
		{"overflowing beta_db", func(s *ScenarioSpec) { s.Topology.Radio = &RadioSpec{PathLossExponent: 3, BetaDB: 1e308} }, "topology.radio.beta_db must convert to a finite linear value > 0, got 1e+308"},
		{"overflowing tx_dbm", func(s *ScenarioSpec) { s.Topology.TxPowerDBm = 1e308 }, "topology.tx_dbm must convert to a finite linear value > 0, got 1e+308"},
		{"underflowing tx_dbm", func(s *ScenarioSpec) { s.Topology.TxPowerDBm = -1e308 }, "topology.tx_dbm must convert to a finite linear value > 0, got -1e+308"},
		{"overflowing max_tx_dbm", func(s *ScenarioSpec) {
			s.Topology = TopologySpec{Kind: "uniform", Nodes: 16, SideMeters: 100, MinTxDBm: 16, MaxTxDBm: 1e308}
		}, "topology.max_tx_dbm must convert to a finite linear value > 0, got 1e+308"},
		{"overflowing cs_threshold_dbm", func(s *ScenarioSpec) {
			cs := 1e308
			s.Topology.Radio = &RadioSpec{CSThresholdDBm: &cs}
		}, "topology.radio.cs_threshold_dbm must convert to a finite linear value > 0, got 1e+308"},
		{"negative num_radios", func(s *ScenarioSpec) { s.Topology.Radio = &RadioSpec{NumRadios: -2} }, "topology.radio.num_radios must be >= 0 (0 selects 1), got -2"},
		{"negative shadow_sigma_db", func(s *ScenarioSpec) { s.Topology.Radio = &RadioSpec{ShadowSigmaDB: -3} }, "topology.radio.shadow_sigma_db must be finite and >= 0, got -3"},
	}
	for _, tc := range bad {
		spec := testSpec()
		tc.mutate(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The unknown-scheduler error lists the valid names.
	spec := testSpec()
	spec.Scheduler = "astrology"
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "greedy") {
		t.Errorf("unknown-scheduler error should list valid names, got %v", err)
	}
}

// TestRunSparseBurstyEndsAtHorizon: a bursty source whose mean rate puts
// its first arrival some 1,000 s out, behind ON and OFF periods of a few
// microseconds, stops drawing at the horizon instead of stepping through
// hundreds of millions of empty periods. The run ends at once and offers
// nothing.
func TestRunSparseBurstyEndsAtHorizon(t *testing.T) {
	spec, err := ParseScenario([]byte(`{"topology":{"kind":"grid","rows":4,"cols":4,"step_m":30},
		"traffic":{"kind":"bursty","rate_pps":1e-3,"mean_on_sec":1e-6,"mean_off_sec":3e-6},
		"scheduler":"greedy","horizon_sec":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *FlowResult
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := Run(context.Background(), spec)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Offered != 0 {
			t.Errorf("offered %d packets, want 0", o.res.Offered)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("run took %v, want well under a second", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still drawing arrivals after 10 s")
	}
}

// TestRunTinySpatialBucket: a spatial bucket edge far below the
// deployment's scale coarsens instead of overflowing the bucket grid, and the
// run completes with every packet accounted for.
func TestRunTinySpatialBucket(t *testing.T) {
	spec, err := ParseScenario([]byte(`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30},
		"traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 0.3, "seed": 7,
		"interference": {"engine": "spatial", "bucket_m": 1e-300}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Offered != res.Delivered+res.Dropped+res.LostOnFailure+res.FinalBacklog {
		t.Errorf("offered %d, delivered %d, dropped %d, lost %d, backlog %d",
			res.Offered, res.Delivered, res.Dropped, res.LostOnFailure, res.FinalBacklog)
	}
}

// TestRunSpatialGolden pins a short greedy run on the spatial engine byte for
// byte: every epoch's streamed schedule, one JSON line each, then the JSON
// result. The deployment is a 16x16 grid at a 30 m step under the default
// cutoff, so admissions exercise both the exact near-field and the bucket-cap
// far-field interference branches.
// Regenerate with: go test -run TestRunSpatialGolden -update
func TestRunSpatialGolden(t *testing.T) {
	checkRunGolden(t, ScenarioSpec{
		Name:           "greedy-spatial256",
		Topology:       TopologySpec{Kind: "grid", Rows: 16, Cols: 16, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "poisson", Load: 0.9},
		Scheduler:      "greedy",
		HorizonSec:     0.1,
		Seed:           1,
		FramesPerEpoch: 1,
		MaxService:     16,
		Interference:   &InterferenceSpec{Engine: "spatial"},
	}, "run_greedy_spatial256.jsonl")
}

// TestRunSpatialDynamicsGolden pins a greedy run on the spatial engine under
// churn and waypoint mobility the way TestRunSpatialGolden pins a static one:
// every failure, recovery and move goes through the engine the schedulers
// build against, so this is the output that stale near-field gains would
// change.
// Regenerate with: go test -run TestRunSpatialDynamicsGolden -update
func TestRunSpatialDynamicsGolden(t *testing.T) {
	checkRunGolden(t, ScenarioSpec{
		Name:           "greedy-spatial-dynamics144",
		Topology:       TopologySpec{Kind: "grid", Rows: 12, Cols: 12, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "poisson", Load: 0.9},
		Scheduler:      "greedy",
		HorizonSec:     0.3,
		Seed:           1,
		FramesPerEpoch: 1,
		MaxService:     16,
		Interference:   &InterferenceSpec{Engine: "spatial"},
		Dynamics: &DynamicsSpec{FailRate: 2, MeanDowntimeSec: 0.1,
			Mobility: "waypoint", SpeedMps: 8, MoveIntervalSec: 0.05},
	}, "run_greedy_spatial_dynamics.jsonl")
}

// TestRunDenseDynamicsGolden pins a greedy run on the dense channel under
// churn and waypoint mobility: every failure, recovery and move batch
// patches the channel the schedules are admitted against, so this is the
// output a stale or wrongly recomputed gain row would change.
// Regenerate with: go test -run TestRunDenseDynamicsGolden -update
func TestRunDenseDynamicsGolden(t *testing.T) {
	checkRunGolden(t, ScenarioSpec{
		Name:           "greedy-churn64",
		Topology:       TopologySpec{Kind: "grid", Rows: 8, Cols: 8, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "poisson", Load: 0.9},
		Scheduler:      "greedy",
		HorizonSec:     0.5,
		Seed:           1,
		FramesPerEpoch: 8,
		MaxService:     8,
		MaxQueue:       64,
		Dynamics: &DynamicsSpec{FailRate: 0.2, MeanDowntimeSec: 0.5,
			Mobility: "waypoint", SpeedMps: 2},
	}, "run_greedy_dense_dynamics.jsonl")
}

// checkRunGolden runs spec and compares every epoch's streamed schedule, one
// JSON line each, then the JSON result, byte for byte with testdata/name.
func checkRunGolden(t *testing.T, spec ScenarioSpec, name string) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	res, err := RunWith(context.Background(), spec, RunOptions{OnEpoch: func(u EpochUpdate) {
		if err := enc.Encode(u.Schedule); err != nil {
			t.Fatal(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatalf("golden run %s delivered nothing", spec.Name)
	}

	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("run diverges from %s (%d vs %d bytes); run with -update only after an intended change",
			golden, buf.Len(), len(want))
	}
}

// TestRunDeterministic: the same spec produces the identical result, and the
// epoch stream's final cumulative counters agree with it.
func TestRunDeterministic(t *testing.T) {
	spec := testSpec()
	var last EpochUpdate
	var epochs int
	a, err := RunWith(context.Background(), spec, RunOptions{OnEpoch: func(u EpochUpdate) {
		last = u
		epochs++
	}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec, different results:\n%+v\n%+v", a, b)
	}
	if epochs == 0 {
		t.Fatal("OnEpoch never fired")
	}
	if last.Offered != a.Offered || last.Delivered != a.Delivered || last.Dropped != a.Dropped {
		t.Fatalf("final epoch update %+v disagrees with result offered=%d delivered=%d dropped=%d",
			last, a.Offered, a.Delivered, a.Dropped)
	}
}

// TestRunCancel: a canceled context aborts the run with the context error.
func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testSpec()); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled run returned %v", err)
	}
}

// TestScenarioClone: mutating a clone (slices and pointers included) never
// leaks into the original.
func TestScenarioClone(t *testing.T) {
	cs := -80.0
	spec := testSpec()
	spec.Topology.Gateways = []int{0, 3}
	spec.Topology.Radio = &RadioSpec{CSThresholdDBm: &cs}
	spec.Dynamics = &DynamicsSpec{FailRate: 1}
	c := spec.Clone()
	c.Topology.Gateways[0] = 99
	*c.Topology.Radio.CSThresholdDBm = 0
	c.Topology.Radio.NumRadios = 4
	c.Dynamics.FailRate = 9
	if spec.Topology.Gateways[0] != 0 || *spec.Topology.Radio.CSThresholdDBm != -80 ||
		spec.Topology.Radio.NumRadios != 0 || spec.Dynamics.FailRate != 1 {
		t.Fatalf("Clone shares memory with the original: %+v", spec)
	}
}

// Two mobility bodies that pass Validate and, while every sample time was
// generated up front, exhausted memory before a run's first cancellation
// check: drift sampled every nanosecond for a second, and waypoint over 1e9
// seconds at the default 100 ms interval.
const (
	fineDriftBody    = `{"topology":{"kind":"grid","rows":4,"cols":4,"step_m":30},"horizon_sec":1,"traffic":{"kind":"poisson","load":0.5},"dynamics":{"mobility":"drift","speed_mps":1,"move_interval_sec":1e-9}}`
	longWaypointBody = `{"topology":{"kind":"grid","rows":4,"cols":4,"step_m":30},"horizon_sec":1e9,"traffic":{"kind":"poisson","load":0.5},"dynamics":{"mobility":"waypoint","speed_mps":1}}`
)

// TestMobilityTimelineBounded: dynam.NewWorld holds O(nodes) timeline
// state, so for each of the two mobility bodies it allocates exactly what
// it allocates for the same spec with 1e8 times fewer samples: the drift
// body at the default 100 ms interval, and the waypoint body over a 1 s
// horizon.
func TestMobilityTimelineBounded(t *testing.T) {
	allocs := func(body string, edit func(*ScenarioSpec)) float64 {
		t.Helper()
		spec, err := ParseScenario([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		edit(&spec)
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		m, err := spec.Mesh()
		if err != nil {
			t.Fatal(err)
		}
		cfg, ok := spec.Dynamics.config(secsToSim(spec.HorizonSec), spec.Seed)
		if !ok {
			t.Fatal("no dynamics")
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := dynam.NewWorld(m.Network, m.Forest, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	keep := func(*ScenarioSpec) {}
	for _, c := range []struct {
		name string
		body string
		tame func(*ScenarioSpec)
	}{
		{"drift every nanosecond", fineDriftBody, func(s *ScenarioSpec) { s.Dynamics.MoveIntervalSec = 0.1 }},
		{"waypoint over 1e9 s", longWaypointBody, func(s *ScenarioSpec) { s.HorizonSec = 1 }},
	} {
		got, want := allocs(c.body, keep), allocs(c.body, c.tame)
		if got != want || want == 0 {
			t.Errorf("%s: NewWorld allocates %v, %v with fewer samples", c.name, got, want)
		}
	}
}

// FuzzParseScenario: decoding and Validate never panic on any body, and a
// spec that decodes survives its own JSON: the re-encoded document decodes
// again to the same bytes and validates alike. Bytes are compared rather
// than specs because a decoded "gateways":[] re-encodes as an absent list.
// The seed corpus is the golden document plus six hostile bodies that
// validate today and would exhaust memory or time if run; the target never
// runs a spec.
func FuzzParseScenario(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "scenario_grid.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	const (
		topo4x4 = `"topology":{"kind":"grid","rows":4,"cols":4,"step_m":30}`
		grid    = topo4x4 + `,"horizon_sec":0.2`
	)
	for _, body := range []string{
		`{` + grid + `,"traffic":{"kind":"poisson","rate_pps":1e18}}`,
		`{` + grid + `,"traffic":{"kind":"poisson","load":0.5},"channels":1000000000}`,
		`{"topology":{"kind":"uniform","nodes":200000,"side_m":100000},"traffic":{"kind":"poisson","load":0.5},"horizon_sec":0.2}`,
		`{` + grid + `,"traffic":{"kind":"poisson","load":0.5},"dynamics":{"mobility":"waypoint","speed_mps":1e300}}`,
		// Mobility samples (mobile nodes x horizon / move interval): 1e9
		// per mobile node in the first, and 1e10 per node at the default
		// 100 ms interval in the second (TestMobilityTimelineBounded).
		fineDriftBody,
		longWaypointBody,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec ScenarioSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		verr := spec.Validate()
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("decoded spec does not encode: %v", err)
		}
		var again ScenarioSpec
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the document:\n%s\n%s", enc, enc2)
		}
		if verr2 := again.Validate(); fmt.Sprint(verr) != fmt.Sprint(verr2) {
			t.Fatalf("validation differs after the round trip: %v, then %v", verr, verr2)
		}
	})
}
