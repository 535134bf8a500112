package scream

// Defensive-copy audit of the public API: everything handed across the API
// boundary — slices returned to callers, slices taken from callers, clones —
// must be owned by exactly one side. The daemon leans on these guarantees
// for session isolation, so each one is pinned here as a table of
// mutate-and-compare probes.

import (
	"context"
	"reflect"
	"testing"
)

func TestAPIDefensiveCopies(t *testing.T) {
	cases := []struct {
		name  string
		probe func(t *testing.T)
	}{
		{"Mesh.Gateways returns a copy", func(t *testing.T) {
			m := flowTestMesh(t)
			gws := m.Gateways()
			want := append([]int(nil), gws...)
			for i := range gws {
				gws[i] = -1
			}
			if !reflect.DeepEqual(m.Gateways(), want) {
				t.Errorf("mutating Gateways() result changed the mesh: %v", m.Gateways())
			}
		}},
		{"mesh does not alias the caller's gateway slice", func(t *testing.T) {
			gws := []int{0, 15}
			m, err := NewGridMesh(GridMeshConfig{Rows: 4, Cols: 4, StepMeters: 30, Seed: 1, Gateways: gws})
			if err != nil {
				t.Fatal(err)
			}
			gws[0] = 7
			if got := m.Gateways(); got[0] != 0 {
				t.Errorf("mutating the config slice re-routed the mesh gateways: %v", got)
			}
		}},
		{"Schedulers returns a fresh slice", func(t *testing.T) {
			infos := Schedulers()
			want := Schedulers()
			for i := range infos {
				infos[i] = SchedulerInfo{Name: "clobbered"}
			}
			if !reflect.DeepEqual(Schedulers(), want) {
				t.Error("mutating Schedulers() result changed the registry")
			}
		}},
		{"Mesh.Clone isolates links, demands and gateways", func(t *testing.T) {
			m := flowTestMesh(t)
			wantLinks := append([]Link(nil), m.Links...)
			wantDemands := append([]int(nil), m.Demands...)
			wantGws := m.Gateways()
			c := m.Clone()
			c.Links[0] = Link{From: 99, To: 99}
			c.Demands[0] += 1000
			c.gateways[0] = -1
			if !reflect.DeepEqual(m.Links, wantLinks) ||
				!reflect.DeepEqual(m.Demands, wantDemands) ||
				!reflect.DeepEqual(m.Gateways(), wantGws) {
				t.Error("mutating a clone leaked into the source mesh")
			}
		}},
		{"Mesh.Clone isolates the network", func(t *testing.T) {
			m := flowTestMesh(t)
			before := m.Network.Channel.RxPowerMW(0, 1)
			c := m.Clone()
			if c.Network == m.Network {
				t.Fatal("clone shares the network object")
			}
			if err := c.Network.SetNodeDown(1); err != nil {
				t.Fatal(err)
			}
			if m.Network.IsDown(1) {
				t.Error("downing a clone's node downed the source node")
			}
			if got := m.Network.Channel.RxPowerMW(0, 1); got != before {
				t.Errorf("downing a clone's node changed the source channel: %v -> %v", before, got)
			}
		}},
		{"ScenarioSpec.Clone isolates nested pointers", func(t *testing.T) {
			cs := -80.0
			spec := testSpec()
			spec.Topology.Gateways = []int{0, 3}
			spec.Topology.Radio = &RadioSpec{CSThresholdDBm: &cs}
			spec.Dynamics = &DynamicsSpec{FailRate: 1}
			c := spec.Clone()
			c.Topology.Gateways[1] = 9
			*c.Topology.Radio.CSThresholdDBm = 5
			c.Dynamics.Mobility = "drift"
			if spec.Topology.Gateways[1] != 3 || *spec.Topology.Radio.CSThresholdDBm != -80 ||
				spec.Dynamics.Mobility != "" {
				t.Error("mutating a spec clone leaked into the source spec")
			}
		}},
		{"ScenarioSpec.Clone isolates the interference block", func(t *testing.T) {
			spec := testSpec()
			spec.Interference = &InterferenceSpec{Engine: EngineSpatial, CutoffM: 200}
			c := spec.Clone()
			c.Interference.Engine = EngineDense
			c.Interference.CutoffM = 1
			if spec.Interference.Engine != EngineSpatial || spec.Interference.CutoffM != 200 {
				t.Error("mutating a clone's interference block leaked into the source spec")
			}
		}},
		{"Engines returns a fresh slice", func(t *testing.T) {
			infos := Engines()
			want := Engines()
			for i := range infos {
				infos[i] = EngineInfo{Name: "clobbered"}
			}
			if !reflect.DeepEqual(Engines(), want) {
				t.Error("mutating Engines() result changed the registry")
			}
		}},
		{"Mesh.Clone carries the engine selection", func(t *testing.T) {
			m := flowTestMesh(t)
			if err := m.UseEngine(InterferenceSpec{Engine: EngineSpatial}); err != nil {
				t.Fatal(err)
			}
			c := m.Clone()
			if c.EngineName() != EngineSpatial {
				t.Errorf("clone lost the engine selection: %q", c.EngineName())
			}
			if err := c.UseEngine(InterferenceSpec{}); err != nil {
				t.Fatal(err)
			}
			if m.EngineName() != EngineSpatial {
				t.Errorf("re-selecting a clone's engine changed the source mesh: %q", m.EngineName())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.probe)
	}
}

// TestMeshCloneRunEquivalence: a clone is a full substitute for its source —
// the same flow run on source and clone produces the identical result, and
// running on the clone perturbs nothing in the source.
func TestMeshCloneRunEquivalence(t *testing.T) {
	m := flowTestMesh(t)
	spec := flowTestSpec("greedy")
	a, err := RunWith(context.Background(), spec, RunOptions{Mesh: m})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(context.Background(), spec, RunOptions{Mesh: m.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("clone run diverged:\n got %+v\nwant %+v", b, a)
	}
}
