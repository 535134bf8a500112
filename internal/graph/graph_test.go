package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// lists assembles a test graph's adjacency rows in insertion order, the
// way callers outside topo describe small graphs.
type lists [][]int

// arc adds u -> v unless it is already there.
func (l lists) arc(u, v int) {
	if !slices.Contains(l[u], v) {
		l[u] = append(l[u], v)
	}
}

// edge adds u -> v and v -> u.
func (l lists) edge(u, v int) {
	l.arc(u, v)
	l.arc(v, u)
}

// graph flattens the rows into a Graph.
func (l lists) graph() *Graph {
	off := make([]int, 1, len(l)+1)
	var nbr []int
	for _, row := range l {
		nbr = append(nbr, row...)
		off = append(off, len(nbr))
	}
	return FromCSR(off, nbr)
}

// empty returns n isolated nodes.
func empty(n int) *Graph { return make(lists, n).graph() }

// ring builds a directed cycle 0 -> 1 -> ... -> n-1 -> 0.
func ring(n int) *Graph {
	l := make(lists, n)
	for i := 0; i < n; i++ {
		l.arc(i, (i+1)%n)
	}
	return l.graph()
}

// pathLists returns the rows of an undirected path 0 - 1 - ... - n-1.
func pathLists(n int) lists {
	l := make(lists, n)
	for i := 0; i+1 < n; i++ {
		l.edge(i, i+1)
	}
	return l
}

// path builds an undirected path 0 - 1 - ... - n-1.
func path(n int) *Graph { return pathLists(n).graph() }

// TestFromCSRValidates: offsets that do not span the neighbor array, a row
// that ends before it starts, and an out-of-range neighbor all panic.
func TestFromCSRValidates(t *testing.T) {
	for name, tc := range map[string]struct{ off, nbr []int }{
		"no offsets":     {nil, nil},
		"nonzero start":  {[]int{1, 1}, []int{0}},
		"short span":     {[]int{0, 1}, []int{0, 0}},
		"backwards row":  {[]int{0, 2, 1, 2}, []int{1, 2}},
		"neighbor range": {[]int{0, 1}, []int{1}},
		"negative":       {[]int{0, 1, 1}, []int{-1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromCSR(%v, %v) did not panic", name, tc.off, tc.nbr)
				}
			}()
			FromCSR(tc.off, tc.nbr)
		}()
	}
	g := FromCSR([]int{0, 1, 1}, []int{1})
	if g.NumNodes() != 2 || !slices.Equal(g.Neighbors(0), []int{1}) || len(g.Neighbors(1)) != 0 {
		t.Fatalf("FromCSR built %d nodes, rows %v %v", g.NumNodes(), g.Neighbors(0), g.Neighbors(1))
	}
}

// TestRowsAreIsolated: the rows share one array, yet appending to a
// returned row never writes into the next one, and a Clone or a Transpose
// shares no memory with the original.
func TestRowsAreIsolated(t *testing.T) {
	g := path(4) // rows [1] [0 2] [1 3] [2]
	_ = append(g.Neighbors(0), 99)
	if !slices.Equal(g.Neighbors(1), []int{0, 2}) {
		t.Fatalf("append to row 0 overwrote row 1: %v", g.Neighbors(1))
	}
	c, tr := g.Clone(), g.Transpose()
	for u := 0; u < 4; u++ {
		if !slices.Equal(c.Neighbors(u), g.Neighbors(u)) {
			t.Fatalf("clone row %d = %v, want %v", u, c.Neighbors(u), g.Neighbors(u))
		}
	}
	for _, h := range []*Graph{c, tr} {
		h.nbr[0], h.off[1] = 3, 0
	}
	if !slices.Equal(g.Neighbors(0), []int{1}) || !slices.Equal(g.Neighbors(1), []int{0, 2}) {
		t.Fatalf("writing a copy changed the original: %v %v", g.Neighbors(0), g.Neighbors(1))
	}
}

// TestDiameterMatchesPerSourceBFS: Diameter and DiameterAmong, which reuse
// one distance slice and one queue across sources, agree with a fresh BFS
// per source on random directed graphs and random active sets.
func TestDiameterMatchesPerSourceBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		l := make(lists, n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				l.arc(u, v)
			}
		}
		g := l.graph()
		active := make([]bool, n)
		all := make([]bool, n)
		for u := range active {
			active[u] = rng.Intn(3) > 0
			all[u] = true
		}
		if got, want := g.Diameter(), perSourceDiameter(g, all); got != want {
			t.Fatalf("trial %d: Diameter = %d, per-source BFS %d (%v)", trial, got, want, l)
		}
		if got, want := g.DiameterAmong(active), perSourceDiameter(g, active); got != want {
			t.Fatalf("trial %d: DiameterAmong = %d, per-source BFS %d (%v, active %v)", trial, got, want, l, active)
		}
	}
}

// perSourceDiameter is the diameter among active nodes from one freshly
// allocated BFS per source.
func perSourceDiameter(g *Graph, active []bool) int {
	max := 0
	for u := range active {
		if !active[u] {
			continue
		}
		for v, d := range g.BFS(u) {
			if u == v || !active[v] {
				continue
			}
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

func TestDegreeAccounting(t *testing.T) {
	g := path(4)
	if g.NumEdges() != 6 {
		t.Errorf("undirected path of 4 nodes should have 6 directed edges, got %d", g.NumEdges())
	}
	if len(g.Neighbors(0)) != 1 || len(g.Neighbors(1)) != 2 {
		t.Errorf("degrees wrong: %d, %d", len(g.Neighbors(0)), len(g.Neighbors(1)))
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", got)
	}
	if got := empty(0).AvgDegree(); got != 0 {
		t.Errorf("empty graph AvgDegree = %v", got)
	}
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	l := make(lists, 3)
	l.arc(0, 1)
	g := l.graph()
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Errorf("unreachable node should be -1, got %d", dist[2])
	}
	// Directed edge means 1 cannot reach 0.
	if d := g.BFS(1); d[0] != -1 {
		t.Errorf("reverse reachability should fail, got %d", d[0])
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := path(7)
	dist := g.MultiSourceBFS([]int{0, 6})
	wantDist := []int{0, 1, 2, 3, 2, 1, 0}
	for i := range wantDist {
		if dist[i] != wantDist[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], wantDist[i])
		}
	}
}

func TestMultiSourceBFSDuplicateSources(t *testing.T) {
	g := path(3)
	dist := g.MultiSourceBFS([]int{0, 0})
	if dist[0] != 0 || dist[1] != 1 {
		t.Errorf("duplicate sources mishandled: dist=%v", dist)
	}
}

func TestMultiSourceBFSUnreachable(t *testing.T) {
	l := make(lists, 4)
	l.edge(0, 1)
	g := l.graph()
	dist := g.MultiSourceBFS([]int{0})
	if dist[3] != -1 {
		t.Error("unreachable node should have a -1 marker")
	}
}

func TestDiameterRing(t *testing.T) {
	// Directed ring of n: diameter n-1.
	g := ring(8)
	if got := g.Diameter(); got != 7 {
		t.Errorf("ring diameter = %d, want 7", got)
	}
}

func TestDiameterPath(t *testing.T) {
	g := path(10)
	if got := g.Diameter(); got != 9 {
		t.Errorf("path diameter = %d, want 9", got)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	l := make(lists, 4)
	l.edge(0, 1)
	l.edge(2, 3)
	g := l.graph()
	if got := g.Diameter(); got != -1 {
		t.Errorf("disconnected graph diameter = %d, want -1 (infinite)", got)
	}
}

func TestStronglyConnected(t *testing.T) {
	if !ring(5).StronglyConnected() {
		t.Error("ring should be strongly connected")
	}
	if !path(5).StronglyConnected() {
		t.Error("undirected path should be strongly connected")
	}
	oneway := make(lists, 3)
	oneway.arc(0, 1)
	oneway.arc(1, 2)
	if oneway.graph().StronglyConnected() {
		t.Error("one-way chain is not strongly connected")
	}
	if !empty(1).StronglyConnected() {
		t.Error("single node is trivially strongly connected")
	}
	if !empty(0).StronglyConnected() {
		t.Error("empty graph is trivially strongly connected")
	}
}

func TestTranspose(t *testing.T) {
	l := make(lists, 3)
	l.arc(0, 1)
	l.arc(1, 2)
	tr := l.graph().Transpose()
	if !slices.Contains(tr.Neighbors(1), 0) || !slices.Contains(tr.Neighbors(2), 1) || slices.Contains(tr.Neighbors(0), 1) {
		t.Error("transpose edges wrong")
	}
	// Rows come out in ascending source order, and transposing twice gives
	// back the ascending original.
	l = make(lists, 4)
	for _, e := range [][2]int{{3, 0}, {1, 0}, {2, 0}, {0, 3}, {2, 3}, {0, 1}} {
		l.arc(e[0], e[1])
	}
	g := l.graph()
	tr = g.Transpose()
	if !slices.Equal(tr.Neighbors(0), []int{1, 2, 3}) || !slices.Equal(tr.Neighbors(3), []int{0, 2}) {
		t.Errorf("transpose rows %v %v, want [1 2 3] [0 2]", tr.Neighbors(0), tr.Neighbors(3))
	}
	back := tr.Transpose()
	for u := 0; u < 4; u++ {
		want := slices.Clone(g.Neighbors(u))
		slices.Sort(want)
		if !slices.Equal(back.Neighbors(u), want) {
			t.Errorf("double transpose row %d = %v, want %v", u, back.Neighbors(u), want)
		}
	}
}

func TestDiameterMonotoneUnderEdgeAddition(t *testing.T) {
	// Adding edges never increases the diameter of a strongly connected
	// graph (the sensitivity graph is a supergraph of the communication
	// graph, so ID(G_S) <= diameter of G — the paper's Section IV-B logic).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(10)
		l := pathLists(n)
		before := l.graph().Diameter()
		// Random extra undirected edge.
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			l.edge(a, b)
		}
		after := l.graph().Diameter()
		if after > before {
			t.Fatalf("adding an edge increased diameter: %d -> %d", before, after)
		}
	}
}

func TestLinkHopDistance(t *testing.T) {
	g := path(8)
	tests := []struct {
		a, b Edge
		want int
	}{
		{Edge{0, 1}, Edge{0, 1}, 0},
		{Edge{0, 1}, Edge{1, 2}, 0}, // share a node
		{Edge{0, 1}, Edge{2, 3}, 1},
		{Edge{0, 1}, Edge{6, 7}, 5},
	}
	for _, tt := range tests {
		if got := LinkHopDistance(g, tt.a, tt.b); got != tt.want {
			t.Errorf("LinkHopDistance(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := LinkHopDistance(g, tt.b, tt.a); got != tt.want {
			t.Errorf("LinkHopDistance not symmetric for %v, %v", tt.a, tt.b)
		}
	}
}

// TestLinkDistancesMatchPerEndpointBFS: LinkHopDistance and
// LinkKNeighborhood, which search once from both endpoints of a link, agree
// with the least of the four endpoint-to-endpoint distances of one BFS per
// endpoint, on random directed graphs.
func TestLinkDistancesMatchPerEndpointBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(11)
		l := make(lists, n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				l.arc(u, v)
			}
		}
		g := l.graph()
		links := make([]Edge, 1+rng.Intn(6))
		for i := range links {
			links[i] = Edge{rng.Intn(n), rng.Intn(n)}
		}
		k := rng.Intn(4)
		for i, a := range links {
			distU, distV := g.BFS(a.U), g.BFS(a.V)
			var want []int
			for j, b := range links {
				d := -1
				for _, x := range []int{distU[b.U], distU[b.V], distV[b.U], distV[b.V]} {
					if x >= 0 && (d < 0 || x < d) {
						d = x
					}
				}
				if got := LinkHopDistance(g, a, b); got != d {
					t.Fatalf("trial %d: LinkHopDistance(%v, %v) = %d, per-endpoint BFS %d (%v)", trial, a, b, got, d, l)
				}
				if d >= 0 && d <= k {
					want = append(want, j)
				}
			}
			if got := LinkKNeighborhood(g, links, i, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d: LinkKNeighborhood(%d, k=%d) = %v, per-endpoint BFS %v (%v)", trial, i, k, got, want, l)
			}
		}
	}
}

func TestLinkHopDistanceDisconnected(t *testing.T) {
	l := make(lists, 4)
	l.edge(0, 1)
	l.edge(2, 3)
	g := l.graph()
	if got := LinkHopDistance(g, Edge{0, 1}, Edge{2, 3}); got != -1 {
		t.Errorf("disconnected links should give -1, got %d", got)
	}
}

func TestLinkKNeighborhood(t *testing.T) {
	g := path(10)
	links := []Edge{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}
	// Neighborhood of link 0 with k=1: links {0,1} (dist 0), {2,3} (dist 1).
	got := LinkKNeighborhood(g, links, 0, 1)
	want := []int{0, 1}
	if len(got) != len(want) {
		t.Fatalf("k=1 neighborhood = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("k=1 neighborhood = %v, want %v", got, want)
		}
	}
	// k large enough covers everything.
	if got := LinkKNeighborhood(g, links, 0, 9); len(got) != len(links) {
		t.Errorf("k=9 should cover all links, got %v", got)
	}
	// k=0 covers only links sharing a node.
	if got := LinkKNeighborhood(g, links, 2, 0); len(got) != 1 || got[0] != 2 {
		t.Errorf("k=0 neighborhood = %v, want [2]", got)
	}
}
