package route

import (
	"math/rand"
	"slices"
	"testing"

	"scream/internal/graph"
	"scream/internal/phys"
)

// arcs assembles a test graph's adjacency rows in insertion order.
type arcs [][]int

// add inserts u -> v unless it is already there.
func (a arcs) add(u, v int) {
	if !slices.Contains(a[u], v) {
		a[u] = append(a[u], v)
	}
}

// undirected inserts u -> v and v -> u.
func (a arcs) undirected(u, v int) {
	a.add(u, v)
	a.add(v, u)
}

// graph flattens the rows into a graph.Graph.
func (a arcs) graph() *graph.Graph {
	off := make([]int, 1, len(a)+1)
	var nbr []int
	for _, row := range a {
		nbr = append(nbr, row...)
		off = append(off, len(nbr))
	}
	return graph.FromCSR(off, nbr)
}

// gridGraph builds an r x c undirected grid communication graph.
func gridGraph(r, c int) *graph.Graph {
	g := make(arcs, r*c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.undirected(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				g.undirected(id(i, j), id(i+1, j))
			}
		}
	}
	return g.graph()
}

// gatewayOf returns the root gateway of u's tree, or -1 when u is detached.
func gatewayOf(f *Forest, u int) int {
	if f.depth[u] < 0 {
		return -1
	}
	for f.parent[u] >= 0 {
		u = f.parent[u]
	}
	return u
}

func TestBuildForestSingleGateway(t *testing.T) {
	g := gridGraph(4, 4)
	f, err := BuildForest(g, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsGateway(0) || f.parent[0] != -1 || f.Depth(0) != 0 {
		t.Error("gateway bookkeeping wrong")
	}
	if f.NumNodes() != 16 {
		t.Errorf("NumNodes = %d", f.NumNodes())
	}
	// Node 15 (corner (3,3)) is 6 hops from node 0.
	if f.Depth(15) != 6 {
		t.Errorf("depth(15) = %d, want 6", f.Depth(15))
	}
	// Every non-gateway's parent must be exactly one hop closer.
	for u := 1; u < 16; u++ {
		p := f.parent[u]
		if p < 0 {
			t.Fatalf("node %d has no parent", u)
		}
		if f.Depth(p) != f.Depth(u)-1 {
			t.Errorf("node %d depth %d but parent %d depth %d", u, f.Depth(u), p, f.Depth(p))
		}
		if !slices.Contains(g.Neighbors(u), p) {
			t.Errorf("parent edge %d-%d not in communication graph", u, p)
		}
		if gatewayOf(f, u) != 0 {
			t.Errorf("gateway(%d) = %d, want 0", u, gatewayOf(f, u))
		}
	}
}

func TestBuildForestMultiGateway(t *testing.T) {
	g := gridGraph(4, 4)
	gws := []int{0, 15}
	f, err := BuildForest(g, gws, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Gateways(); len(got) != 2 || got[0] != 0 || got[1] != 15 {
		t.Errorf("Gateways = %v", got)
	}
	// Each node joins the tree of one of its nearest gateways.
	dist0 := g.BFS(0)
	dist15 := g.BFS(15)
	for u := 0; u < 16; u++ {
		if f.IsGateway(u) {
			continue
		}
		min := dist0[u]
		if dist15[u] < min {
			min = dist15[u]
		}
		if f.Depth(u) != min {
			t.Errorf("node %d depth %d, want min-gateway dist %d", u, f.Depth(u), min)
		}
		gw := gatewayOf(f, u)
		var gwDist int
		if gw == 0 {
			gwDist = dist0[u]
		} else {
			gwDist = dist15[u]
		}
		if gwDist != min {
			t.Errorf("node %d joined gateway %d at dist %d, nearest is %d", u, gw, gwDist, min)
		}
	}
}

func TestBuildForestErrors(t *testing.T) {
	g := gridGraph(2, 2)
	if _, err := BuildForest(g, nil, nil); err == nil {
		t.Error("no gateways should fail")
	}
	if _, err := BuildForest(g, []int{7}, nil); err == nil {
		t.Error("out-of-range gateway should fail")
	}
	if _, err := BuildForest(g, []int{0, 0}, nil); err == nil {
		t.Error("duplicate gateway should fail")
	}
	disc := make(arcs, 3)
	disc.undirected(0, 1)
	if _, err := BuildForest(disc.graph(), []int{0}, nil); err == nil {
		t.Error("unreachable node should fail")
	}
}

func TestRandomTieBreakReproducible(t *testing.T) {
	g := gridGraph(5, 5)
	f1, err := BuildForest(g, []int{0}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := BuildForest(g, []int{0}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 25; u++ {
		if f1.parent[u] != f2.parent[u] {
			t.Fatalf("same seed gave different forests at node %d", u)
		}
	}
	// Different seeds should (almost surely) differ somewhere on a 5x5 grid.
	f3, err := BuildForest(g, []int{0}, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for u := 0; u < 25; u++ {
		if f1.parent[u] != f3.parent[u] {
			same = false
			break
		}
	}
	if same {
		t.Log("different seeds gave identical forest; unlikely but not an error")
	}
}

func TestEdgeOfAndLinks(t *testing.T) {
	g := gridGraph(3, 3)
	f, err := BuildForest(g, []int{4}, nil) // center gateway
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.EdgeOf(4); ok {
		t.Error("gateway must own no edge")
	}
	links := f.Links()
	if len(links) != 8 {
		t.Fatalf("want 8 links, got %d", len(links))
	}
	for _, l := range links {
		if l.To != f.parent[l.From] {
			t.Errorf("link %v does not point at parent", l)
		}
	}
}

// children returns the children lists of every node, the oracle the
// aggregation tests check subtree sums against.
func (f *Forest) children() [][]int {
	ch := make([][]int, len(f.parent))
	for u, p := range f.parent {
		if p >= 0 {
			ch[p] = append(ch[p], u)
		}
	}
	return ch
}

func TestChildren(t *testing.T) {
	g := gridGraph(1, 4) // path 0-1-2-3
	f, err := BuildForest(g, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch := f.children()
	if len(ch[0]) != 1 || ch[0][0] != 1 {
		t.Errorf("children of 0 = %v", ch[0])
	}
	if len(ch[3]) != 0 {
		t.Errorf("leaf should have no children, got %v", ch[3])
	}
}

func TestAggregateDemandPath(t *testing.T) {
	g := gridGraph(1, 4) // 0-1-2-3, gateway 0
	f, err := BuildForest(g, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := f.AggregateDemand([]int{100, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Edge of node 3 carries 3; node 2 carries 2+3; node 1 carries 1+2+3.
	want := []int{0, 6, 5, 3}
	for u, w := range want {
		if agg[u] != w {
			t.Errorf("agg[%d] = %d, want %d", u, agg[u], w)
		}
	}
	// Per link, in the order given: the owners' aggregates.
	links := []phys.Link{{From: 3, To: 2}, {From: 1, To: 0}}
	demands, err := f.LinkDemands(links, []int{100, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(demands, []int{3, 6}) {
		t.Errorf("LinkDemands = %v, want [3 6]", demands)
	}
	if _, err := f.LinkDemands(links, []int{1}); err == nil {
		t.Error("LinkDemands: wrong demand length should fail")
	}
}

func TestAggregateDemandTree(t *testing.T) {
	// Star around gateway: every edge carries exactly its own demand.
	g := make(arcs, 5)
	for u := 1; u < 5; u++ {
		g.undirected(0, u)
	}
	f, err := BuildForest(g.graph(), []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := f.AggregateDemand([]int{9, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u < 5; u++ {
		if agg[u] != u {
			t.Errorf("agg[%d] = %d, want %d", u, agg[u], u)
		}
	}
	if agg[0] != 0 {
		t.Error("gateway aggregate must be zero")
	}
}

func TestAggregateDemandErrors(t *testing.T) {
	g := gridGraph(1, 3)
	f, err := BuildForest(g, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AggregateDemand([]int{1, 2}); err == nil {
		t.Error("wrong demand length should fail")
	}
	if _, err := f.AggregateDemand([]int{0, -1, 2}); err == nil {
		t.Error("negative demand should fail")
	}
}

func TestAggregateConservation(t *testing.T) {
	// Sum of demands entering each gateway equals sum of non-gateway node
	// demands in its tree (flow conservation).
	g := gridGraph(6, 6)
	rng := rand.New(rand.NewSource(17))
	f, err := BuildForest(g, []int{0, 35}, rng)
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]int, 36)
	for i := range demand {
		demand[i] = rng.Intn(10) + 1
	}
	agg, err := f.AggregateDemand(demand)
	if err != nil {
		t.Fatal(err)
	}
	ch := f.children()
	for _, gw := range f.Gateways() {
		in := 0
		for _, c := range ch[gw] {
			in += agg[c]
		}
		want := 0
		for u := 0; u < 36; u++ {
			if !f.IsGateway(u) && gatewayOf(f, u) == gw {
				want += demand[u]
			}
		}
		if in != want {
			t.Errorf("gateway %d receives %d, tree generates %d", gw, in, want)
		}
	}
}
