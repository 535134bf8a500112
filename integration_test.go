package scream

// Cross-module integration tests exercising whole pipelines through the
// public API: topology -> forest -> demands -> protocols -> verification,
// across backends, topologies and failure modes.

import (
	"math/rand"
	"testing"
)

// TestEndToEndAllSchedulersAgreeOnQuality runs every scheduler on the same
// mesh and checks the quality ordering the paper establishes:
// optimal-ish centralized == FDD <= PDD(any p) <= linear.
func TestEndToEndAllSchedulersAgreeOnQuality(t *testing.T) {
	mesh, err := NewMesh(TopologySpec{Kind: "grid", Rows: 6, Cols: 6, StepMeters: 32}, 11)
	if err != nil {
		t.Fatal(err)
	}
	td := mesh.TotalDemand()

	greedy, err := mesh.GreedySchedule(ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Verify(greedy); err != nil {
		t.Fatal(err)
	}

	fdd, err := mesh.RunFDD(ProtocolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Verify(fdd.Schedule); err != nil {
		t.Fatal(err)
	}
	if !fdd.Schedule.Equal(greedy) {
		t.Error("FDD != GreedyPhysical")
	}

	worstPDD := 0
	for _, p := range []float64{0.2, 0.5, 0.8} {
		pdd, err := mesh.RunPDD(p, ProtocolOptions{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if err := mesh.Verify(pdd.Schedule); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if pdd.Schedule.Length() > worstPDD {
			worstPDD = pdd.Schedule.Length()
		}
	}
	if greedy.Length() > td {
		t.Errorf("greedy (%d) longer than linear (%d)", greedy.Length(), td)
	}
	if worstPDD > td {
		t.Errorf("PDD (%d) longer than linear (%d)", worstPDD, td)
	}
	t.Logf("TD=%d greedy=FDD=%d worstPDD=%d", td, greedy.Length(), worstPDD)
}

// TestEndToEndPacketLevelPDD runs PDD over the packet-level radio backend —
// randomized protocol + skewed clocks + energy detection, full stack.
func TestEndToEndPacketLevelPDD(t *testing.T) {
	mesh, err := NewMesh(TopologySpec{
		Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30, Gateways: []int{0}, DemandHi: 3,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mesh.RunPDD(0.5, ProtocolOptions{PacketLevel: true, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Verify(res.Schedule); err != nil {
		t.Fatalf("packet-level PDD schedule invalid: %v", err)
	}
	if res.ExecTime <= 0 {
		t.Error("no time accounted")
	}
}

// TestEndToEndUniformMeshesAcrossSeeds fuzzes the whole pipeline over many
// random unplanned deployments: every run must verify, and FDD must equal
// greedy on every single one (Theorem 4 is not a statistical claim).
func TestEndToEndUniformMeshesAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		mesh, err := NewMesh(TopologySpec{
			Kind: "uniform", Nodes: 36, SideMeters: 200, MinTxDBm: 14, MaxTxDBm: 20,
		}, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fdd, err := mesh.RunFDD(ProtocolOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := mesh.Verify(fdd.Schedule); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		greedy, err := mesh.GreedySchedule(ByHeadIDDesc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !fdd.Schedule.Equal(greedy) {
			t.Fatalf("seed %d: Theorem 4 violated", seed)
		}
	}
}

// TestEndToEndProtocolModelComparison checks the protocol-model facade on a
// fat-margin mesh: physical schedules must verify; protocol-model schedules
// at moderate power must contain SINR-violating slots (the aggregation
// blindness the physical model fixes).
func TestEndToEndProtocolModelComparison(t *testing.T) {
	mesh, err := NewMesh(TopologySpec{Kind: "grid", Rows: 6, Cols: 6, StepMeters: 30, TxPowerDBm: 17}, 23)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := mesh.GreedyProtocolSchedule(ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	physical, err := mesh.GreedySchedule(ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Verify(physical); err != nil {
		t.Fatal(err)
	}
	if bad := mesh.CountInfeasibleSlots(physical); bad != 0 {
		t.Errorf("physical schedule has %d infeasible slots", bad)
	}
	t.Logf("protocol %d slots (%d SINR-violating), physical %d slots",
		proto.Length(), mesh.CountInfeasibleSlots(proto), physical.Length())
}

// TestEndToEndOptimalOnTinyMesh cross-checks greedy against the exact DP on
// a mesh small enough for exhaustive search.
func TestEndToEndOptimalOnTinyMesh(t *testing.T) {
	mesh, err := NewMesh(TopologySpec{
		Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30, Gateways: []int{0}, DemandLo: 1, DemandHi: 1,
	}, 29)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := mesh.OptimalLength()
	if err != nil {
		t.Fatal(err)
	}
	// OptimalLength scores unit demands; compare greedy on the same
	// unit-demand workload (the mesh's own demands are subtree-aggregated).
	unit := make([]int, len(mesh.Links))
	for i := range unit {
		unit[i] = 1
	}
	greedy, err := mesh.GreedyScheduleFor(mesh.Links, unit, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Length() < opt {
		t.Fatalf("greedy %d < optimal %d: impossible", greedy.Length(), opt)
	}
	if greedy.Length() > 2*opt {
		t.Errorf("greedy %d more than 2x optimal %d on a tiny mesh", greedy.Length(), opt)
	}
	t.Logf("optimal %d, greedy %d", opt, greedy.Length())
}

// TestEndToEndSkewSweepMonotone runs the same mesh at rising skew and checks
// execution time strictly rises while the schedule stays identical — the
// protocols compensate for skew with time, never with quality.
func TestEndToEndSkewSweepMonotone(t *testing.T) {
	mesh, err := NewMesh(TopologySpec{Kind: "grid", Rows: 5, Cols: 5, StepMeters: 30}, 31)
	if err != nil {
		t.Fatal(err)
	}
	var prevTime SimTime
	var first *Schedule
	for i, skew := range []SimTime{Microsecond, 100 * Microsecond, 10 * Millisecond} {
		tm := DefaultTiming()
		tm.SkewBound = skew
		res, err := mesh.RunFDD(ProtocolOptions{Timing: tm})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Schedule
		} else {
			if !res.Schedule.Equal(first) {
				t.Error("schedule changed with skew")
			}
			if res.ExecTime <= prevTime {
				t.Error("execution time must rise with skew")
			}
		}
		prevTime = res.ExecTime
	}
}

// TestEndToEndReproducibility: identical configs give bit-identical results
// across the whole stack.
func TestEndToEndReproducibility(t *testing.T) {
	build := func() (*Mesh, *Result) {
		mesh, err := NewMesh(TopologySpec{
			Kind: "uniform", Nodes: 30, SideMeters: 200, MinTxDBm: 14, MaxTxDBm: 20,
		}, 37)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mesh.RunPDD(0.4, ProtocolOptions{Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		return mesh, res
	}
	_, a := build()
	_, b := build()
	if !a.Schedule.Equal(b.Schedule) {
		t.Error("identical configs must reproduce identical schedules")
	}
	if a.ExecTime != b.ExecTime || a.Screams != b.Screams {
		t.Error("identical configs must reproduce identical accounting")
	}
}

// TestEndToEndCustomLinkSet drives the arbitrary-link-set escape hatch the
// paper mentions (scheduling a general link set, not a forest).
func TestEndToEndCustomLinkSet(t *testing.T) {
	mesh, err := NewMesh(TopologySpec{Kind: "grid", Rows: 5, Cols: 5, StepMeters: 30}, 43)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	var links []Link
	used := map[int]bool{}
	for len(links) < 6 {
		a := rng.Intn(24)
		if a%5 == 4 || used[a] || used[a+1] {
			continue // avoid row wrap: a and a+1 must be grid neighbors
		}
		links = append(links, Link{From: a, To: a + 1})
		used[a], used[a+1] = true, true
	}
	demands := make([]int, len(links))
	for i := range demands {
		demands[i] = 1 + rng.Intn(3)
	}
	s, err := mesh.GreedyScheduleFor(links, demands, ByDemandDesc)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.VerifyFor(links, demands, s); err != nil {
		t.Fatal(err)
	}
}
