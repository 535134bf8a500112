package topo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
)

// buildFresh materializes a reference network from the mutated network's
// current positions, powers and radio states. shadowSeed seeds the rng the
// mutated network was built with, so a shadowed reference draws the same
// per-pair shadowing.
func buildFresh(t *testing.T, n *Network, shadowSeed int64) *Network {
	t.Helper()
	pos := make([]geom.Point, len(n.Nodes))
	pw := make([]float64, len(n.Nodes))
	for i, nd := range n.Nodes {
		pos[i] = nd.Pos
		pw[i] = nd.TxPowerMW
	}
	ref, err := Build(pos, pw, n.Region, n.Params, rand.New(rand.NewSource(shadowSeed)))
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

// perPairGraphs derives the communication and sensitivity rows the way
// RefreshGraphs did before it read the channel's RX rows: every ordered
// pair through RxPowerMW and LinkUp, each edge appended on its own.
func perPairGraphs(n *Network) (comm, sens [][]int) {
	nn := len(n.Nodes)
	comm, sens = make([][]int, nn), make([][]int, nn)
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v++ {
			if u == v {
				continue
			}
			if n.Channel.RxPowerMW(u, v) >= n.Params.CSThresholdMW {
				sens[u] = append(sens[u], v)
			}
			if u < v && n.Channel.LinkUp(u, v) && n.Channel.LinkUp(v, u) {
				comm[u] = append(comm[u], v)
				comm[v] = append(comm[v], u)
			}
		}
	}
	return comm, sens
}

// assertPerPairGraphs checks n's graphs against perPairGraphs edge for
// edge, every row in ascending order.
func assertPerPairGraphs(t *testing.T, n *Network, what string) {
	t.Helper()
	comm, sens := perPairGraphs(n)
	edges := [2]int{}
	for u := range n.Nodes {
		for i, g := range []struct {
			name      string
			got, want []int
		}{{"comm", n.Comm.Neighbors(u), comm[u]}, {"sens", n.Sens.Neighbors(u), sens[u]}} {
			if !slices.Equal(g.got, g.want) {
				t.Fatalf("%s: %s row %d = %v, per-pair rule %v", what, g.name, u, g.got, g.want)
			}
			if !slices.IsSorted(g.got) {
				t.Fatalf("%s: %s row %d = %v is not ascending", what, g.name, u, g.got)
			}
			edges[i] += len(g.want)
		}
	}
	if n.Comm.NumEdges() != edges[0] || n.Sens.NumEdges() != edges[1] {
		t.Fatalf("%s: %d comm and %d sens edges, per-pair rule %v", what, n.Comm.NumEdges(), n.Sens.NumEdges(), edges)
	}
}

// TestGraphsMatchPerPairRule: freshly built grid, uniform and line
// deployments, with and without shadowing, derive exactly the per-pair
// graphs.
func TestGraphsMatchPerPairRule(t *testing.T) {
	for _, sigma := range []float64{0, 8} {
		p := DefaultParams()
		p.ShadowSigmaDB = sigma
		grid, err := NewGrid(GridConfig{Rows: 6, Cols: 7, Step: 30, Params: p}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		uniform, err := Build(UniformPositions(40, geom.Square(250), rng),
			HeterogeneousPower(40, 0, 15, rng), geom.Square(250), p, rng)
		if err != nil {
			t.Fatal(err)
		}
		line, err := Build(LinePositions(12, 25), HomogeneousPower(12, phys.DBm(5).MilliWatts()),
			geom.Rect{MaxX: 11 * 25}, p, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		for name, net := range map[string]*Network{"grid": grid, "uniform": uniform, "line": line} {
			what := fmt.Sprintf("%s, sigma %v", name, sigma)
			if net.Comm.NumEdges() == 0 || net.Sens.NumEdges() < net.Comm.NumEdges() {
				t.Fatalf("%s: degenerate graphs (%d comm, %d sens edges)", what, net.Comm.NumEdges(), net.Sens.NumEdges())
			}
			assertPerPairGraphs(t, net, what)
		}
	}
}

// mutation is one topology-dynamics call: a move, a failure or a recovery.
type mutation struct {
	kind byte // 'm' move, 'd' down, 'u' up
	u    int
	pos  geom.Point
}

func (m mutation) apply(t *testing.T, n *Network) {
	t.Helper()
	var err error
	switch m.kind {
	case 'm':
		err = n.MoveNode(m.u, m.pos)
	case 'd':
		err = n.SetNodeDown(m.u)
	default:
		err = n.SetNodeUp(m.u)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestNetworkDynamicsMatchFreshBuild applies batches of mixed move, fail and
// recover mutations, refreshing once per batch as dynam.World does, and
// asserts the network stays identical (channel bits, graph adjacency and
// order) to a network freshly built from the same state. Scripted batches
// come first: a node moved twice, a node moved while down that later
// recovers where it went, a node moved then failed, and a node failed, moved
// and recovered in one batch; random batches of 1-8 mutations follow. After
// each batch a Clone taken before the refresh, with the rows still pending,
// must refresh to the same network, and both networks' graphs must equal
// the per-pair derivation. It runs with and without shadowing.
func TestNetworkDynamicsMatchFreshBuild(t *testing.T) {
	const seed = 5
	scripted := [][]mutation{
		{{'m', 5, geom.Point{X: 10, Y: 20}}, {'m', 6, geom.Point{Y: 100}}, {'m', 5, geom.Point{X: 90, Y: 40}}},
		{{kind: 'd', u: 3}, {'m', 3, geom.Point{X: 50, Y: 50}}},
		{{kind: 'u', u: 3}, {'m', 9, geom.Point{X: 5, Y: 5}}, {kind: 'd', u: 9}},
		{{kind: 'd', u: 7}, {'m', 7, geom.Point{X: 70}}, {kind: 'u', u: 7}, {'m', 12, geom.Point{X: 35, Y: 35}}},
	}
	for _, sigma := range []float64{0, 6} {
		p := DefaultParams()
		p.ShadowSigmaDB = sigma
		net, err := NewGrid(GridConfig{Rows: 4, Cols: 4, Step: 35, Params: p}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		batches := slices.Clone(scripted)
		for k := 0; k < 40; k++ {
			batch := make([]mutation, 1+rng.Intn(8))
			for i := range batch {
				batch[i] = mutation{kind: "mdu"[rng.Intn(3)], u: rng.Intn(len(net.Nodes)),
					pos: geom.Point{X: rng.Float64() * net.Region.MaxX, Y: rng.Float64() * net.Region.MaxY}}
			}
			batches = append(batches, batch)
		}
		for b, batch := range batches {
			for _, m := range batch {
				m.apply(t, net)
			}
			pending := net.Clone()
			net.RefreshGraphs()
			want := buildFresh(t, net, seed)
			what := fmt.Sprintf("sigma %v, batch %d %+v", sigma, b, batch)
			assertSameNetwork(t, net, want, what)
			assertPerPairGraphs(t, net, what)
			pending.RefreshGraphs()
			assertSameNetwork(t, pending, want, what+" (clone with rows pending)")
			assertPerPairGraphs(t, pending, what+" (clone with rows pending)")
		}
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
