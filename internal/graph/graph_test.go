package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// ring builds a directed cycle 0 -> 1 -> ... -> n-1 -> 0.
func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// path builds an undirected path 0 - 1 - ... - n-1.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddUndirected(i, i+1)
	}
	return g
}

func TestAddEdgeDedup(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.NumEdges() != 1 {
		t.Errorf("duplicate edges should be ignored, got %d edges", g.NumEdges())
	}
	if !slices.Contains(g.Neighbors(0), 1) || slices.Contains(g.Neighbors(1), 0) {
		t.Error("directed edge semantics broken")
	}
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
	if got := New(0).AvgDegree(); got != 0 {
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
	g := New(3)
	g.AddEdge(0, 1)
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
	dist, nearest := g.MultiSourceBFS([]int{0, 6})
	wantDist := []int{0, 1, 2, 3, 2, 1, 0}
	for i := range wantDist {
		if dist[i] != wantDist[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], wantDist[i])
		}
	}
	if nearest[1] != 0 || nearest[5] != 1 {
		t.Errorf("nearest wrong: %v", nearest)
	}
	// Node 3 is equidistant; either source is acceptable but it must be set.
	if nearest[3] < 0 {
		t.Error("equidistant node must still be assigned")
	}
}

func TestMultiSourceBFSDuplicateSources(t *testing.T) {
	g := path(3)
	dist, nearest := g.MultiSourceBFS([]int{0, 0})
	if dist[0] != 0 || nearest[0] != 0 {
		t.Errorf("duplicate sources mishandled: dist=%v nearest=%v", dist, nearest)
	}
}

func TestMultiSourceBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddUndirected(0, 1)
	dist, nearest := g.MultiSourceBFS([]int{0})
	if dist[3] != -1 || nearest[3] != -1 {
		t.Error("unreachable node should have -1 markers")
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
	g := New(4)
	g.AddUndirected(0, 1)
	g.AddUndirected(2, 3)
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
	oneway := New(3)
	oneway.AddEdge(0, 1)
	oneway.AddEdge(1, 2)
	if oneway.StronglyConnected() {
		t.Error("one-way chain is not strongly connected")
	}
	if !New(1).StronglyConnected() {
		t.Error("single node is trivially strongly connected")
	}
	if !New(0).StronglyConnected() {
		t.Error("empty graph is trivially strongly connected")
	}
}

func TestTranspose(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tr := g.Transpose()
	if !slices.Contains(tr.Neighbors(1), 0) || !slices.Contains(tr.Neighbors(2), 1) || slices.Contains(tr.Neighbors(0), 1) {
		t.Error("transpose edges wrong")
	}
}

func TestDiameterMonotoneUnderEdgeAddition(t *testing.T) {
	// Adding edges never increases the diameter of a strongly connected
	// graph (the sensitivity graph is a supergraph of the communication
	// graph, so ID(G_S) <= diameter of G — the paper's Section IV-B logic).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(10)
		g := path(n)
		before := g.Diameter()
		// Random extra undirected edge.
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddUndirected(a, b)
		}
		after := g.Diameter()
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

func TestLinkHopDistanceDisconnected(t *testing.T) {
	g := New(4)
	g.AddUndirected(0, 1)
	g.AddUndirected(2, 3)
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
