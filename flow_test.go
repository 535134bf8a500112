package scream

import (
	"context"
	"math"
	"testing"
)

func flowTestMesh(t *testing.T) *Mesh {
	t.Helper()
	m, err := NewGridMesh(GridMeshConfig{Rows: 4, Cols: 4, StepMeters: 30, Seed: 1})
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

// TestRadioParamsCSThreshold pins the carrier-sense sentinel semantics:
// DefaultRadioParams (NaN) derives beta * noise; any finite value — now
// including a literal 0 dBm — is used as given.
func TestRadioParamsCSThreshold(t *testing.T) {
	if !math.IsNaN(DefaultRadioParams().CSThresholdDBm) {
		t.Fatal("DefaultRadioParams should leave CSThresholdDBm explicitly unset (NaN)")
	}

	derived := flowTestMesh(t)
	p := derived.Network.Params
	if got, want := p.CSThresholdMW, p.NoiseMW*p.Beta; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("NaN sentinel: CS threshold %v, want beta*noise %v", got, want)
	}

	radio := DefaultRadioParams()
	radio.CSThresholdDBm = 0 // a literal 0 dBm = 1 mW, previously unexpressible
	m, err := NewGridMesh(GridMeshConfig{Rows: 4, Cols: 4, StepMeters: 30, Seed: 1, Radio: radio})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Network.Params.CSThresholdMW; math.Abs(got-1) > 1e-12 {
		t.Errorf("explicit 0 dBm: CS threshold %v mW, want 1", got)
	}

	radio.CSThresholdDBm = -80
	m, err = NewGridMesh(GridMeshConfig{Rows: 4, Cols: 4, StepMeters: 30, Seed: 1, Radio: radio})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Network.Params.CSThresholdMW, 1e-8; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("explicit -80 dBm: CS threshold %v mW, want %v", got, want)
	}
}
