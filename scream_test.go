package scream

import (
	"testing"
)

func testGridMesh(t testing.TB) *Mesh {
	t.Helper()
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 5, Cols: 5, StepMeters: 30}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewGridMeshDefaults(t *testing.T) {
	m := testGridMesh(t)
	if m.NumNodes() != 25 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	if len(m.Gateways()) != 4 {
		t.Errorf("default gateways = %v, want 4 quadrant gateways", m.Gateways())
	}
	if len(m.Links) != 21 {
		t.Errorf("links = %d, want 21", len(m.Links))
	}
	if m.TotalDemand() <= 0 {
		t.Error("positive demand expected")
	}
	if m.InterferenceDiameter() <= 0 {
		t.Error("positive interference diameter expected")
	}
	if m.NeighborDensity() <= 0 {
		t.Error("positive neighbor density expected")
	}
}

// TestNewGridMeshNumRadiosKeepsDefaultPhysics: setting only the radio count
// must not defeat the default physics group — the mesh gets the default
// propagation environment plus the requested radios.
func TestNewGridMeshNumRadiosKeepsDefaultPhysics(t *testing.T) {
	plain := testGridMesh(t)
	m, err := NewMesh(TopologySpec{
		Kind: "grid", Rows: 5, Cols: 5, StepMeters: 30,
		Radio: &RadioSpec{NumRadios: 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRadios() != 2 {
		t.Fatalf("NumRadios = %d, want 2", m.NumRadios())
	}
	if len(m.Links) != len(plain.Links) || m.TotalDemand() != plain.TotalDemand() {
		t.Fatalf("a radio-only RadioSpec changed the topology: %d links TD %d, want %d links TD %d",
			len(m.Links), m.TotalDemand(), len(plain.Links), plain.TotalDemand())
	}
	for i, l := range plain.Links {
		if m.Links[i] != l {
			t.Fatalf("link %d = %v, want %v", i, m.Links[i], l)
		}
	}
}

// TestMeshMultiChannelSchedule: the public multi-channel surface — shorter
// verified schedules through Mesh.GreedyScheduleChannels and the protocol
// path through ProtocolOptions.Channels.
func TestMeshMultiChannelSchedule(t *testing.T) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 5, Cols: 5, StepMeters: 30, Radio: &RadioSpec{NumRadios: 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := m.GreedySchedule(ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := m.GreedyScheduleChannels(4, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyChannels(multi, 4); err != nil {
		t.Fatal(err)
	}
	if multi.Length() >= single.Length() {
		t.Fatalf("4-channel greedy (%d slots) not shorter than single-channel (%d)", multi.Length(), single.Length())
	}
	for _, c := range []int{0, -1} {
		if _, err := m.GreedyScheduleChannels(c, ByHeadIDDesc); err == nil {
			t.Fatalf("GreedyScheduleChannels accepted %d channels", c)
		}
		if err := m.VerifyChannels(multi, c); err == nil {
			t.Fatalf("VerifyChannels accepted %d channels", c)
		}
	}
	res, err := m.RunFDD(ProtocolOptions{Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyChannels(res.Schedule, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunFDD(ProtocolOptions{Channels: 4, PacketLevel: true}); err == nil {
		t.Fatal("multi-channel packet-level run should be rejected")
	}
}

func TestNewGridMeshExplicitGateway(t *testing.T) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30, Gateways: []int{0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Gateways(); len(g) != 1 || g[0] != 0 {
		t.Errorf("gateways = %v", g)
	}
	if len(m.Links) != 15 {
		t.Errorf("links = %d, want 15", len(m.Links))
	}
}

func TestNewUniformMesh(t *testing.T) {
	m, err := NewMesh(TopologySpec{
		Kind: "uniform", Nodes: 30, SideMeters: 200, MinTxDBm: 16, MaxTxDBm: 22,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 30 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
}

func TestGreedyVerifyImprovement(t *testing.T) {
	m := testGridMesh(t)
	s, err := m.GreedySchedule(ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(s); err != nil {
		t.Fatalf("greedy schedule invalid: %v", err)
	}
	if imp := m.Improvement(s); imp < 0 || imp >= 100 {
		t.Errorf("improvement = %v out of range", imp)
	}
}

func TestRunFDDEqualsGreedy(t *testing.T) {
	m := testGridMesh(t)
	res, err := m.RunFDD(ProtocolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res.Schedule); err != nil {
		t.Fatal(err)
	}
	g, err := m.GreedySchedule(ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Equal(g) {
		t.Error("public-API FDD must equal GreedyPhysical (Theorem 4)")
	}
}

func TestRunPDD(t *testing.T) {
	m := testGridMesh(t)
	res, err := m.RunPDD(0.5, ProtocolOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Error("positive execution time expected")
	}
}

func TestRunPacketLevel(t *testing.T) {
	m, err := NewMesh(TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30, Gateways: []int{0}, DemandHi: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := m.RunFDD(ProtocolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := m.RunFDD(ProtocolOptions{PacketLevel: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !ideal.Schedule.Equal(pkt.Schedule) {
		t.Error("packet-level FDD must match ideal FDD under provisioned skew")
	}
}

func TestMeshScream(t *testing.T) {
	m := testGridMesh(t)
	vars := make([]bool, m.NumNodes())
	vars[3] = true
	out, err := m.Scream(vars, ProtocolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if !v {
			t.Fatalf("node %d missed the scream", i)
		}
	}
	if _, err := m.Scream(vars[:2], ProtocolOptions{}); err == nil {
		t.Error("wrong vars length should fail")
	}
}

func TestMeshLeaderElect(t *testing.T) {
	m := testGridMesh(t)
	part := make([]bool, m.NumNodes())
	part[2], part[17] = true, true
	w, err := m.LeaderElect(part, ProtocolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w != 17 {
		t.Errorf("winner = %d, want 17", w)
	}
	if _, err := m.LeaderElect(part[:3], ProtocolOptions{}); err == nil {
		t.Error("wrong flags length should fail")
	}
}

func TestMoteFacade(t *testing.T) {
	cfg := DefaultMoteConfig(24)
	cfg.Screams = 50
	res, err := RunMoteExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPercent > 10 {
		t.Errorf("24-byte mote error = %.1f%%", res.ErrorPercent)
	}
}

func TestHelpers(t *testing.T) {
	if LinearLength([]int{2, 3}) != 5 {
		t.Error("LinearLength broken")
	}
	if ImprovementOverLinear(5, 10) != 50 {
		t.Error("ImprovementOverLinear broken")
	}
	if DefaultTiming().SMBytes != 15 {
		t.Error("DefaultTiming broken")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	if _, err := NewMesh(TopologySpec{Kind: "grid", Rows: 0, Cols: 3, StepMeters: 30}, 0); err == nil {
		t.Error("bad grid config should fail")
	}
	if _, err := NewMesh(TopologySpec{Kind: "uniform", Nodes: 0, SideMeters: 100}, 0); err == nil {
		t.Error("bad uniform config should fail")
	}
}

func TestBalancedRoutingMesh(t *testing.T) {
	plain, err := NewMesh(TopologySpec{Kind: "grid", Rows: 6, Cols: 6, StepMeters: 30}, 5)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := NewMesh(TopologySpec{Kind: "grid", Rows: 6, Cols: 6, StepMeters: 30, BalancedRouting: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Both must schedule and verify; depths must be min-hop in both.
	for _, m := range []*Mesh{plain, bal} {
		s, err := m.GreedySchedule(ByHeadIDDesc)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(s); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < bal.NumNodes(); u++ {
		if bal.Forest.Depth(u) != plain.Forest.Depth(u) {
			t.Fatalf("balanced routing changed hop count at node %d: %d vs %d",
				u, bal.Forest.Depth(u), plain.Forest.Depth(u))
		}
	}
}
