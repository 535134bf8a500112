package topo

import (
	"math"
	"math/rand"
	"testing"

	"scream/internal/geom"
)

// buildFresh materializes a reference network from the mutated network's
// current positions, powers and radio states.
func buildFresh(t *testing.T, n *Network) *Network {
	t.Helper()
	pos := make([]geom.Point, len(n.Nodes))
	pw := make([]float64, len(n.Nodes))
	for i, nd := range n.Nodes {
		pos[i] = nd.Pos
		pw[i] = nd.TxPowerMW
	}
	ref, err := Build(pos, pw, n.Region, n.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := range n.Nodes {
		if n.IsDown(u) {
			if err := ref.SetNodeDown(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.RefreshGraphs()
	return ref
}

// assertSameNetwork compares channel matrices bit for bit and graph
// adjacency exactly.
func assertSameNetwork(t *testing.T, got, want *Network, what string) {
	t.Helper()
	nn := len(got.Nodes)
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v++ {
			g, w := got.Channel.RxPowerMW(u, v), want.Channel.RxPowerMW(u, v)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: RxPowerMW(%d,%d)=%v want %v", what, u, v, g, w)
			}
		}
		cg, cw := got.Comm.Neighbors(u), want.Comm.Neighbors(u)
		if len(cg) != len(cw) {
			t.Fatalf("%s: comm degree of %d: %d vs %d", what, u, len(cg), len(cw))
		}
		for i := range cg {
			if cg[i] != cw[i] {
				t.Fatalf("%s: comm adjacency of %d differs at %d: %v vs %v", what, u, i, cg, cw)
			}
		}
		sg, sw := got.Sens.Neighbors(u), want.Sens.Neighbors(u)
		if len(sg) != len(sw) {
			t.Fatalf("%s: sens degree of %d: %d vs %d", what, u, len(sg), len(sw))
		}
		for i := range sg {
			if sg[i] != sw[i] {
				t.Fatalf("%s: sens adjacency of %d differs at %d", what, u, i)
			}
		}
	}
}

// TestNetworkDynamicsMatchFreshBuild drives a random move/fail/recover
// sequence and asserts the mutated network stays identical (channel bits,
// graph adjacency and order) to a network freshly built from the same state.
func TestNetworkDynamicsMatchFreshBuild(t *testing.T) {
	net, err := NewGrid(GridConfig{Rows: 4, Cols: 4, Step: 35, Params: DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 15; step++ {
		u := rng.Intn(len(net.Nodes))
		switch rng.Intn(3) {
		case 0:
			p := geom.Point{X: rng.Float64() * net.Region.MaxX, Y: rng.Float64() * net.Region.MaxY}
			if err := net.MoveNode(u, p); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := net.SetNodeDown(u); err != nil {
				t.Fatal(err)
			}
		default:
			if err := net.SetNodeUp(u); err != nil {
				t.Fatal(err)
			}
		}
		net.RefreshGraphs()
		assertSameNetwork(t, net, buildFresh(t, net), "after mutation")
	}
}

// TestNetworkCloneIndependent mutates a clone and asserts the original is
// untouched.
func TestNetworkCloneIndependent(t *testing.T) {
	net, err := NewGrid(GridConfig{Rows: 3, Cols: 3, Step: 35, Params: DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := net.Channel.RxPowerMW(0, 1)
	commDeg := len(net.Comm.Neighbors(0))

	c := net.Clone()
	if err := c.SetNodeDown(1); err != nil {
		t.Fatal(err)
	}
	if err := c.MoveNode(0, geom.Point{X: 1000, Y: 1000}); err != nil {
		t.Fatal(err)
	}
	c.RefreshGraphs()

	if got := net.Channel.RxPowerMW(0, 1); got != before {
		t.Fatalf("original channel mutated: %v -> %v", before, got)
	}
	if net.IsDown(1) {
		t.Fatal("original network marked node down")
	}
	if len(net.Comm.Neighbors(0)) != commDeg {
		t.Fatal("original comm graph mutated")
	}
	if !c.IsDown(1) || c.Channel.RxPowerMW(0, 1) != 0 {
		t.Fatal("clone mutations did not stick")
	}
}
