package scream

import (
	"context"
	"math"
	"testing"
)

func flowTestMesh(t *testing.T) *Mesh {
	t.Helper()
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// flowTestSpec is the root flow tests' scenario, run on flowTestMesh:
// Poisson sources at half the mesh's static capacity, 8-packet quota,
// 8-frame schedule reuse, 300 ms, seed 7.
func flowTestSpec(scheduler string) ScenarioSpec {
	return ScenarioSpec{
		Topology:       TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "poisson", Load: 0.5},
		Scheduler:      scheduler,
		P:              0.8,
		HorizonSec:     0.3,
		Seed:           7,
		MaxService:     8,
		FramesPerEpoch: 8,
	}
}

func TestRunFlow(t *testing.T) {
	m := flowTestMesh(t)
	frame, err := m.FlowFrameTime(Timing{})
	if err != nil {
		t.Fatal(err)
	}
	if frame <= 0 {
		t.Fatalf("frame time %v", frame)
	}
	for _, sched := range []string{"greedy", "fdd", "pdd", "tdma"} {
		res, err := RunWith(context.Background(), flowTestSpec(sched), RunOptions{Mesh: m})
		if err != nil {
			t.Fatalf("scheduler %s: %v", sched, err)
		}
		if res.Delivered == 0 {
			t.Errorf("scheduler %s delivered nothing (offered %d)", sched, res.Offered)
		}
		if got := res.Delivered + res.Dropped + res.FinalBacklog; got != res.Offered {
			t.Errorf("scheduler %s: conservation %d != offered %d", sched, got, res.Offered)
		}
	}
}

// TestRunFlowDynamics drives every scheduler through the public dynamics
// API: churn plus waypoint mobility on a private clone — the mesh itself
// must come out of the run untouched.
func TestRunFlowDynamics(t *testing.T) {
	m := flowTestMesh(t)
	before := m.Network.Channel.RxPowerMW(0, 1)
	for _, sched := range []string{"greedy", "fdd", "pdd", "tdma"} {
		spec := flowTestSpec(sched)
		spec.HorizonSec = 0.4
		spec.Dynamics = &DynamicsSpec{
			FailRate:        8,
			MeanDowntimeSec: 0.04,
			Mobility:        "waypoint",
			SpeedMps:        10,
			PauseSec:        0.02,
			MoveIntervalSec: 0.01,
		}
		res, err := RunWith(context.Background(), spec, RunOptions{Mesh: m})
		if err != nil {
			t.Fatalf("scheduler %s: %v", sched, err)
		}
		if res.FailEvents == 0 || res.MoveEvents == 0 {
			t.Errorf("scheduler %s: dynamics inert (%d fail, %d move events)", sched, res.FailEvents, res.MoveEvents)
		}
		if res.Delivered == 0 {
			t.Errorf("scheduler %s delivered nothing under dynamics (offered %d)", sched, res.Offered)
		}
		if got := res.Delivered + res.Dropped + res.LostOnFailure + res.FinalBacklog; got != res.Offered {
			t.Errorf("scheduler %s: conservation %d != offered %d", sched, got, res.Offered)
		}
	}
	if got := m.Network.Channel.RxPowerMW(0, 1); got != before {
		t.Fatalf("a dynamics run mutated the mesh channel: %v -> %v", before, got)
	}
	if m.Network.IsDown(1) {
		t.Fatal("a dynamics run marked a mesh node down")
	}
}

func TestHotspotRatesRoot(t *testing.T) {
	rates, err := HotspotRates(64, 1.5, 1, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	if math.Abs(sum-64) > 1e-6 {
		t.Errorf("hotspot rates sum %v, want 64", sum)
	}
}

// TestRadioSpecCSThreshold pins the carrier-sense threshold: nil derives
// beta * noise from the physics in effect, and any value, a literal 0 dBm
// included, is used as given. Both apply on top of the default physics when
// the five physics fields are all zero.
func TestRadioSpecCSThreshold(t *testing.T) {
	dbm := func(v float64) *float64 { return &v }
	def := flowTestMesh(t).Network.Params
	for _, tc := range []struct {
		name  string
		radio *RadioSpec
		want  float64 // mW
	}{
		{"nil radio", nil, def.NoiseMW * def.Beta},
		{"0 dBm", &RadioSpec{CSThresholdDBm: dbm(0)}, 1},
		{"-70 dBm", &RadioSpec{CSThresholdDBm: dbm(-70)}, 1e-7},
		{"-80 dBm on explicit physics", &RadioSpec{PathLossExponent: 3, RefLossDB: 40, NoiseDBm: -96, BetaDB: 10, CSThresholdDBm: dbm(-80)}, 1e-8},
		{"nil on explicit physics", &RadioSpec{PathLossExponent: 3, RefLossDB: 40, NoiseDBm: -90, BetaDB: 10}, 1e-8},
	} {
		m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30, Radio: tc.radio}, 1)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		p := m.Network.Params
		if got := p.CSThresholdMW; math.Abs(got-tc.want)/tc.want > 1e-9 {
			t.Errorf("%s: CS threshold %v mW, want %v", tc.name, got, tc.want)
		}
		if p.NoiseMW == def.NoiseMW {
			p.CSThresholdMW = def.CSThresholdMW
			if p != def {
				t.Errorf("%s: physics %+v, want the defaults %+v", tc.name, p, def)
			}
		}
	}
}
